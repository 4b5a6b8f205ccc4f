package core

// Tests of the invocation's opening read (leaderRun.open): one batched round
// trip for the epoch counters and the first message's control record, which
// becomes awaitCommit's first poll. They ride pipeline_test.go's rig; its
// fault hook logs when the leader's handler process began each invocation and
// started each storage operation, so "how many reads, in how many round
// trips" is read off instants, not inferred from latencies.

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"faaskeeper/internal/cloud"
	"faaskeeper/internal/cloud/faas"
	"faaskeeper/internal/cloud/kv"
	"faaskeeper/internal/cloud/queue"
	"faaskeeper/internal/obs"
	"faaskeeper/internal/sim"
	"faaskeeper/internal/txn"
	"faaskeeper/internal/wire"
)

// leaderProc is the name of shard 0's leader process, the one pipeFaults logs.
// A test that calls the handler itself runs under it.
const leaderProc = "trigger:" + FnLeader + ":0"

// opsAt counts the storage operations the leader process started at instant at.
func (h *pipeFaults) opsAt(at sim.Time) (n int) {
	for _, op := range h.leaderOps {
		if op == at {
			n++
		}
	}
	return n
}

// deliver hands the leader's handler one batch, as the queue trigger would,
// and reports when the handler started. It must run under leaderProc.
func (r *pipeRig) deliver(ctx cloud.Ctx, seqNo int64, msgs ...leaderMsg) sim.Time {
	r.t.Helper()
	return r.deliverTo(false, ctx, seqNo, msgs...)
}

// deliverTo is deliver into a warm or a cold sandbox.
func (r *pipeRig) deliverTo(cold bool, ctx cloud.Ctx, seqNo int64, msgs ...leaderMsg) sim.Time {
	r.t.Helper()
	inv := &faas.Invocation{K: r.k, Ctx: ctx, Cold: cold}
	for i, m := range msgs {
		e := wire.NewEncoder()
		inv.Messages = append(inv.Messages, queue.Message{SeqNo: seqNo + int64(i), Body: slices.Clone(m.encode(e))})
		e.Release()
	}
	start := r.k.Now()
	if err := r.d.leaderHandler(inv); err != nil {
		r.t.Errorf("leader handler: %v", err)
	}
	return start
}

func syskv(d *Deployment) (reads, writes int64) {
	return d.Env.Meter.Count("syskv.read"), d.Env.Meter.Count("syskv.write")
}

// TestOpeningReadIsOneRoundTrip: a message that rides alone reaches its flush
// one system-store round trip after its invocation began, and its commit
// stage opens at the handler's first instant (stage.queue_leader is queue
// and trigger time only). That round trip is every system-store read the
// leader makes for it: a set_data reads its control record, a create its
// parent's record too, whose child watches it fires. The watch claim rides
// the record's view and reads nothing. The read carries the epoch item
// exactly when the shard's slot does not know the lists empty
// (leaderShard.quiet): here every invocation is warm and follows a clean
// one, so none reads it (TestQuietEpochsSkipTheEpochRead reads it back).
func TestOpeningReadIsOneRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		op    OpCode
		reads int // per write, all at the invocation's first instant
	}{
		{OpSetData, 1},
		{OpCreate, 2},
	} {
		t.Run(string(tc.op), func(t *testing.T) {
			hook := &pipeFaults{}
			r := newPipeRig(t, 11, Config{}, hook)
			const writes = 20
			var reads int64
			r.k.Go("writer", func() {
				s := r.open("w")
				s.do(OpCreate, "/n", "0")
				r.k.Sleep(sim.Ms(200))
				before, _ := syskv(r.d)
				for i := 0; i < writes; i++ {
					path := "/n"
					if tc.op == OpCreate {
						path = fmt.Sprintf("/n/c%d", i)
					}
					if resp := s.do(tc.op, path, "x"); resp.Code != CodeOK {
						t.Errorf("%s %s: %s", tc.op, path, resp.Code)
					}
					r.k.Sleep(sim.Ms(200)) // every message rides alone
				}
				after, _ := syskv(r.d)
				reads = after - before
			})
			r.run()

			for seq := int64(2); seq <= writes+1; seq++ {
				trace := obs.TraceOf("w", seq)
				commit, flush := r.span(trace, obs.StageCommit), r.span(trace, obs.StageFlush)
				if !slices.Contains(hook.leaderHeads, commit.Start) {
					t.Errorf("seq %d: its commit stage opened at %d, not at the start of a leader invocation %v", seq, commit.Start, hook.leaderHeads)
				}
				var ops []sim.Time
				for _, at := range hook.leaderOps {
					if at >= commit.Start && at < flush.Start {
						ops = append(ops, at)
					}
				}
				if len(ops) != tc.reads || slices.ContainsFunc(ops, func(at sim.Time) bool { return at != commit.Start }) {
					t.Errorf("seq %d: between the start of its invocation (%d) and its flush (%d) the leader started storage operations at %v, want %d at the start: one round trip",
						seq, commit.Start, flush.Start, ops, tc.reads)
				}
			}
			if reads != int64(tc.reads*writes) {
				t.Errorf("%d system-store reads for %d lone writes, want %d each (a first poll that misses the follower's commit adds one: pick another seed)", reads, writes, tc.reads)
			}
			if get, total := r.d.Phase("leader.get"), r.d.Phase("leader.total"); get.Min() < 1 || total.Min() < get.Min() {
				t.Errorf("leader.get min %.3f ms, leader.total min %.3f ms: the opening read fell out of a phase", get.Min(), total.Min())
			}
		})
	}
}

// TestOpeningReadFeedsAwaitCommit delivers one set_data to the handler by
// hand, in every state a first or repeated delivery can find the node's
// pending list in, and checks that the opening read's view of it stands in
// for awaitCommit's first poll and for nothing else: every later poll, the
// orphan pop and the commit replay still go to the store. The set's own pop
// is carried to the next invocation, so it ends at the head of its list. The
// create's invocation left the epoch lists empty, so the opening read takes
// the record alone.
func TestOpeningReadFeedsAwaitCommit(t *testing.T) {
	const txid = 9
	commit := func(d *Deployment, ctx cloud.Ctx, msg leaderMsg) {
		_ = d.replayCommit(ctx, msg, txid)
	}
	for _, tc := range []struct {
		name string
		// carried: the create's pop is still carried when the set arrives
		// (the create's invocation was the shard's last); otherwise it ran.
		carried bool
		// between is what happened between the follower's push and this
		// delivery; the follower still holds lock.
		between func(d *Deployment, ctx cloud.Ctx, msg leaderMsg)
		missing bool // the message targets a path without a control record

		code          Code
		reads, writes int64 // the handler's system-store operations
		pending       []int64
		stored        bool // the user store received the write
	}{
		{
			name:    "head is txid",
			between: commit,
			// The opening read alone.
			code: CodeOK, reads: 1, writes: 0, pending: []int64{txid}, stored: true,
		},
		{
			name: "orphan ahead of txid",
			between: func(d *Deployment, ctx cloud.Ctx, msg leaderMsg) {
				_, _ = d.System.Update(ctx, msg.Path, []kv.Update{kv.ListAppend{Name: attrPending, Vals: []int64{5}}}, nil)
				commit(d, ctx, msg)
			},
			// The orphan is popped on the opening read's word, conditionally
			// on the head it named; the poll after it reads the store.
			code: CodeOK, reads: 2, writes: 1, pending: []int64{txid}, stored: true,
		},
		{
			name: "duplicate: head beyond txid",
			between: func(d *Deployment, ctx cloud.Ctx, msg leaderMsg) {
				commit(d, ctx, msg)
				_, _ = d.System.Update(ctx, msg.Path,
					[]kv.Update{kv.ListPopHead{Name: attrPending}, kv.ListAppend{Name: attrPending, Vals: []int64{12}}}, nil)
			},
			code: CodeSystemError, reads: 1, writes: 0, pending: []int64{12},
		},
		{
			name:    "nothing pending: the follower died before its commit",
			between: func(*Deployment, cloud.Ctx, leaderMsg) {},
			// Opening read, two polls, the commit replay after the second
			// (attempt 2, as before), the poll that finds it; the replay.
			code: CodeOK, reads: 4, writes: 1, pending: []int64{txid}, stored: true,
		},
		{
			name:    "no control record",
			missing: true,
			// Opening read, nine polls and the one (failing) replay.
			code: CodeSystemError, reads: 10, writes: 1,
		},
		{
			name:    "carried head, txid behind it",
			carried: true, between: commit,
			// Committed on the opening read's word alone — no pop, no
			// re-read — and the carried pop runs under the flush.
			code: CodeOK, reads: 1, writes: 1, pending: []int64{txid}, stored: true,
		},
		{
			name:    "carried head, nothing behind it: the follower died",
			carried: true, between: func(*Deployment, cloud.Ctx, leaderMsg) {},
			// "Nothing pending" above, plus the carried pop under the flush.
			code: CodeOK, reads: 4, writes: 2, pending: []int64{txid}, stored: true,
		},
		{
			name:    "carried head, orphan behind it",
			carried: true,
			between: func(d *Deployment, ctx cloud.Ctx, msg leaderMsg) {
				_, _ = d.System.Update(ctx, msg.Path, []kv.Update{kv.ListAppend{Name: attrPending, Vals: []int64{5}}}, nil)
				commit(d, ctx, msg)
			},
			// The carried pop runs at once, the next poll finds the orphan,
			// pops it, and the one after finds txid.
			code: CodeOK, reads: 3, writes: 2, pending: []int64{txid}, stored: true,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			hook := &pipeFaults{}
			r := newPipeRig(t, 21, Config{}, hook)
			d := r.d
			var s *pipeSession
			var resp Response
			var reads, writes int64
			var opening int
			r.k.Go(leaderProc, func() {
				s = r.open("w")
				s.do(OpCreate, "/n", "0")
				r.k.Sleep(sim.Ms(200))
				if !tc.carried {
					r.settle()
				}

				// The follower's half of set_data, up to the push.
				var msg leaderMsg
				if tc.missing {
					msg = leaderMsg{
						Session: s.id, Seq: r.expect(s), LockTs: 1,
						change: validatedChange(OpSetData, "/gone", []byte("1"), "", sysNode{Exists: true}, sysNode{}),
					}
				} else {
					msg = r.lockSet(s, "/n", "1")
					tc.between(d, s.ctx, msg)
				}

				r0, w0 := syskv(d)
				start := r.deliver(s.ctx, txid, msg)
				r1, w1 := syskv(d)
				reads, writes, opening = r1-r0, w1-w0, hook.opsAt(start)
				resp = s.futs[msg.Seq].Wait()
				r.k.Sleep(sim.Ms(200))
			})
			r.run()

			if opening != 1 {
				t.Errorf("the handler opened with %d storage operations, want the control record alone", opening)
			}
			if resp.Code != tc.code || s.resps != 2 {
				t.Errorf("answered %s, %d responses in all; want %s and exactly one for each of the two requests", resp.Code, s.resps, tc.code)
			}
			if reads != tc.reads || writes != tc.writes {
				t.Errorf("the handler made %d system-store reads and %d writes, want %d and %d", reads, writes, tc.reads, tc.writes)
			}
			if !tc.missing {
				it, _ := d.System.Peek("/n")
				if got := decodeSysNode(it, 0).Pending; !slices.Equal(got, tc.pending) {
					t.Errorf("pending list ends as %v, want %v", got, tc.pending)
				}
			} else if _, ok := d.System.Peek("/gone"); ok {
				t.Error("the failed replay left a control record behind")
			}
			stored := slices.ContainsFunc(r.calls, func(c storeCall) bool { return c.mzxid == txid })
			if stored != tc.stored {
				t.Errorf("user store written: %v, want %v", stored, tc.stored)
			}
		})
	}
}

// TestOpeningReadCarriesEpochsOnly: a batch whose first message commits on no
// single control record — a deregistration ack, a multi() — opens with
// the epoch counters alone, and a batch of nothing but acks on a multi-shard
// deployment reads nothing at all.
func TestOpeningReadCarriesEpochsOnly(t *testing.T) {
	// A multi() of no ops will do: it has no control record to read, and
	// commits nothing.
	dereg := leaderMsg{Session: "gone", Seq: 3, change: change{Op: OpDeregister}, Fanout: 1}
	// One shard's copy of an ack replicated to two shards: its barrier
	// marker is a write.
	dereg2 := leaderMsg{Session: "gone2", Seq: 3, change: change{Op: OpDeregister}, Fanout: 2, DeregID: 7}
	multi := leaderMsg{Session: "m", Seq: 1, change: change{Op: OpMulti}}
	for _, tc := range []struct {
		name    string
		shards  int
		batch   []leaderMsg
		opening int   // storage operations at the handler's first instant
		reads   int64 // system-store reads of the whole invocation
	}{
		{"deregister", 1, []leaderMsg{dereg}, 1, 1},
		{"multi", 1, []leaderMsg{multi}, 1, 1},
		// Every shard's list is an attribute of the region's one epoch
		// item, so two shards read one item, as one shard does.
		{"multi, two shards", 2, []leaderMsg{multi}, 1, 1},
		// The one operation is a write, the second ack's barrier marker.
		{"acks only, two shards", 2, []leaderMsg{dereg, dereg2}, 1, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			hook := &pipeFaults{}
			r := newPipeRig(t, 31, Config{WriteShards: tc.shards}, hook)
			var opening int
			var reads int64
			r.k.Go(leaderProc, func() {
				ctx := cloud.ClientCtx(r.d.Cfg.Profile.Home)
				r0, _ := syskv(r.d)
				start := r.deliver(ctx, 1, tc.batch...)
				r1, _ := syskv(r.d)
				opening, reads = hook.opsAt(start), r1-r0
			})
			r.run()
			if opening != tc.opening || reads != tc.reads {
				t.Errorf("the handler opened with %d storage operations and read %d items in all, want %d and %d", opening, reads, tc.opening, tc.reads)
			}
		})
	}

	// A real multi() at the head of its invocation: it enters its commit
	// stage once, ahead of the opening read.
	hook := &pipeFaults{}
	r := newPipeRig(t, 31, Config{}, hook)
	var resp Response
	r.k.Go("client", func() {
		s := r.open("c")
		s.do(OpCreate, "/n", "0")
		r.k.Sleep(sim.Ms(200))
		resp = s.send(Request{Op: OpMulti, Path: "/n", Data: txn.EncodeOps([]txn.Op{txn.SetData("/n", []byte("1"), -1)})}).Wait()
	})
	r.run()
	if resp.Code != CodeOK {
		t.Fatalf("multi: %s", resp.Code)
	}
	trace, stages := obs.TraceOf("c", 2), 0
	for _, sp := range r.d.Obs.Tracer.TraceSpans(trace) {
		if sp.Name == obs.StageCommit {
			stages++
		}
	}
	commit := r.span(trace, obs.StageCommit)
	if stages != 1 || !slices.Contains(hook.leaderHeads, commit.Start) || hook.opsAt(commit.Start) != 1 {
		t.Errorf("multi: %d commit stages, the first opened at %d with %d storage operations; want one, at the start of an invocation %v, with the epoch read alone",
			stages, commit.Start, hook.opsAt(commit.Start), hook.leaderHeads)
	}
}

// TestQuietEpochsSkipTheEpochRead: on one shard, an invocation that follows a
// clean one in its warm sandbox opens with the record alone — the slot knows
// the epoch lists empty (leaderShard.quiet). An invocation in a new sandbox,
// after every sandbox expired, and the retry of one that crashed at its
// batch start read the epoch item again, and so does every opening read on
// two shards, whose stamp needs every shard's list. A clean invocation gives
// the word back to the next.
func TestQuietEpochsSkipTheEpochRead(t *testing.T) {
	for _, tc := range []struct {
		name    string
		shards  int
		idle    time.Duration // before each measured set
		crash   bool          // each measured set's first invocation crashes
		opening int           // storage operations at a measured set's invocation
		after   int           // and at the plain set after them
	}{
		{name: "warm after a clean invocation", shards: 1, idle: sim.Ms(200), opening: 1, after: 1},
		{name: "cold: every sandbox expired", shards: 1, idle: 11 * time.Minute, opening: 2, after: 1},
		{name: "retry of a crashed invocation", shards: 1, idle: sim.Ms(200), crash: true, opening: 2, after: 1},
		{name: "two shards", shards: 2, idle: sim.Ms(200), opening: 2, after: 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			hook := &pipeFaults{}
			crashed := map[int64]bool{}
			measuring := false
			hook.crash = func(stage, session string, seq int64) bool {
				if stage != obs.StageCommit || !tc.crash || !measuring || crashed[seq] {
					return false
				}
				crashed[seq] = true
				return true
			}
			r := newPipeRig(t, 17, Config{WriteShards: tc.shards}, hook)
			const sets = 3
			heads := make([][]sim.Time, sets+1) // each measured set's invocations, then the plain set's
			r.k.Go("writer", func() {
				s := r.open("w")
				s.do(OpCreate, "/n", "0")
				s.do(OpSetData, "/n", "0")
				for i := range heads {
					measuring = i < sets
					if measuring {
						r.k.Sleep(tc.idle)
					} else {
						r.k.Sleep(sim.Ms(200))
					}
					n := len(hook.leaderHeads)
					if resp := s.do(OpSetData, "/n", "x"); resp.Code != CodeOK {
						t.Errorf("set %d: %s", i, resp.Code)
					}
					heads[i] = slices.Clone(hook.leaderHeads[n:])
				}
			})
			r.run()

			for i, hs := range heads {
				want, wantHeads := tc.opening, 1
				if i == sets {
					want = tc.after
				} else if tc.crash {
					wantHeads = 2
				}
				var ops []int
				for _, at := range hs {
					ops = append(ops, hook.opsAt(at))
				}
				if len(hs) != wantHeads || ops[len(ops)-1] != want || wantHeads == 2 && ops[0] != 0 {
					t.Errorf("set %d: %d invocations opened with %v storage operations, want %d, the last with %d", i, len(hs), ops, wantHeads, want)
				}
			}
		})
	}
}

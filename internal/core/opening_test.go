package core

// Tests of the invocation's opening read (leaderRun.open): one batched round
// trip for the epoch counters and the first message's control record, which
// becomes awaitCommit's first poll. They ride pipeline_test.go's rig; its
// fault hook logs when the leader's handler process began each invocation and
// started each storage operation, so "how many reads, in how many round
// trips" is read off instants, not inferred from latencies.

import (
	"slices"
	"testing"

	"faaskeeper/internal/cloud"
	"faaskeeper/internal/cloud/faas"
	"faaskeeper/internal/cloud/kv"
	"faaskeeper/internal/cloud/queue"
	"faaskeeper/internal/fksync"
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
	inv := &faas.Invocation{K: r.k, Ctx: ctx}
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
// one system-store round trip after its invocation began — the epoch counter
// and the control record in one batch — its commit stage opens at the
// handler's first instant (stage.queue_leader is queue and trigger time
// only), and a write still costs three system-store reads: those two and the
// watch query.
func TestOpeningReadIsOneRoundTrip(t *testing.T) {
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
			s.do(OpSetData, "/n", "x")
			r.k.Sleep(sim.Ms(200)) // every message rides alone, its pop done
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
		if len(ops) != 2 || ops[0] != commit.Start || ops[1] != commit.Start {
			t.Errorf("seq %d: between the start of its invocation (%d) and its flush (%d) the leader started storage operations at %v, want two at the start: one round trip",
				seq, commit.Start, flush.Start, ops)
		}
	}
	if reads != 3*writes {
		t.Errorf("%d system-store reads for %d lone writes, want 3 each (a first poll that misses the follower's commit adds one: pick another seed)", reads, writes)
	}
	if get, total := r.d.Phase("leader.get"), r.d.Phase("leader.total"); get.Min() < 1 || total.Min() < get.Min() {
		t.Errorf("leader.get min %.3f ms, leader.total min %.3f ms: the opening read fell out of a phase", get.Min(), total.Min())
	}
}

// TestOpeningReadFeedsAwaitCommit delivers one set_data to the handler by
// hand, in every state a first or repeated delivery can find the node's
// pending list in, and checks that the opening read's view of it stands in
// for awaitCommit's first poll and for nothing else: every later poll, the
// orphan pop and the commit replay still go to the store.
func TestOpeningReadFeedsAwaitCommit(t *testing.T) {
	const txid = 9
	for _, tc := range []struct {
		name string
		// between is what happened between the follower's push and this
		// delivery; the follower still holds lock.
		between func(d *Deployment, ctx cloud.Ctx, lock fksync.Lock, msg leaderMsg)
		missing bool // the message targets a path without a control record

		code          Code
		reads, writes int64 // the handler's system-store operations
		pending       []int64
		stored        bool // the user store received the write
	}{
		{
			name: "head is txid",
			between: func(d *Deployment, ctx cloud.Ctx, lock fksync.Lock, msg leaderMsg) {
				_ = d.commitLocked(ctx, []fksync.Lock{lock}, msg, txid, nil)
			},
			// Opening read (epochs + record), watch query; the pop.
			code: CodeOK, reads: 3, writes: 1, stored: true,
		},
		{
			name: "orphan ahead of txid",
			between: func(d *Deployment, ctx cloud.Ctx, lock fksync.Lock, msg leaderMsg) {
				_, _ = d.System.Update(ctx, nodeKey(msg.Path), []kv.Update{pendingAppend(5)}, nil)
				_ = d.commitLocked(ctx, []fksync.Lock{lock}, msg, txid, nil)
			},
			// The orphan is popped on the opening read's word, conditionally
			// on the head it named; the poll after it reads the store.
			code: CodeOK, reads: 4, writes: 2, stored: true,
		},
		{
			name: "duplicate: head beyond txid",
			between: func(d *Deployment, ctx cloud.Ctx, lock fksync.Lock, msg leaderMsg) {
				_ = d.commitLocked(ctx, []fksync.Lock{lock}, msg, txid, nil)
				_, _ = d.System.Update(ctx, nodeKey(msg.Path),
					[]kv.Update{kv.ListPopHead{Name: attrPending}, pendingAppend(12)}, nil)
			},
			code: CodeSystemError, reads: 2, writes: 0, pending: []int64{12},
		},
		{
			name:    "nothing pending: the follower died before its commit",
			between: func(*Deployment, cloud.Ctx, fksync.Lock, leaderMsg) {},
			// Opening read, two polls, the commit replay after the second
			// (attempt 2, as before), the poll that finds it, the watch
			// query; the replay and the pop.
			code: CodeOK, reads: 6, writes: 2, stored: true,
		},
		{
			name:    "no control record",
			missing: true,
			// Opening read, nine polls and the one (failing) replay.
			code: CodeSystemError, reads: 11, writes: 1,
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

				// The follower's half of set_data, up to the push.
				req := Request{Session: s.id, Seq: 2, Op: OpSetData, Path: "/n", Data: []byte("1"), Version: -1}
				var msg leaderMsg
				if tc.missing {
					req.Path = "/gone"
					msg = validatedMsg(req, req.Path, "", sysNode{Exists: true}, sysNode{})
					msg.LockTs = 1
				} else {
					lock, item, err := d.Locks.Acquire(s.ctx, nodeKey(req.Path))
					if err != nil {
						t.Errorf("lock: %v", err)
						return
					}
					msg = validatedMsg(req, req.Path, "", decodeSysNode(item), sysNode{})
					msg.LockTs = lock.Timestamp
					tc.between(d, s.ctx, lock, msg)
				}
				s.seq = req.Seq
				s.futs[req.Seq] = sim.NewFuture[Response](r.k)

				r0, w0 := syskv(d)
				start := r.deliver(s.ctx, txid, msg)
				r1, w1 := syskv(d)
				reads, writes, opening = r1-r0, w1-w0, hook.opsAt(start)
				resp = s.futs[req.Seq].Wait()
				r.k.Sleep(sim.Ms(200))
			})
			r.run()

			if opening != 2 {
				t.Errorf("the handler opened with %d storage operations, want the epoch counter and the control record", opening)
			}
			if resp.Code != tc.code || s.resps != 2 {
				t.Errorf("answered %s, %d responses in all; want %s and exactly one for each of the two requests", resp.Code, s.resps, tc.code)
			}
			if reads != tc.reads || writes != tc.writes {
				t.Errorf("the handler made %d system-store reads and %d writes, want %d and %d", reads, writes, tc.reads, tc.writes)
			}
			if !tc.missing {
				it, _ := d.System.Peek(nodeKey("/n"))
				if got := decodeSysNode(it).Pending; !slices.Equal(got, tc.pending) {
					t.Errorf("pending list ends as %v, want %v", got, tc.pending)
				}
			} else if _, ok := d.System.Peek(nodeKey("/gone")); ok {
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
// single control record — a deregistration ack, a reshard fence, a
// transaction — opens with the epoch counters alone, every shard's in the one
// round trip, and a batch of nothing but acks on a multi-shard deployment
// reads nothing at all.
func TestOpeningReadCarriesEpochsOnly(t *testing.T) {
	// The opening read precedes the decoding of a transaction's payload, so
	// an empty one will do: the handler drops the message right after.
	dereg := leaderMsg{Session: "gone", Seq: 3, Op: OpDeregister, Fanout: 1}
	fence := leaderMsg{Op: OpReshardFence, DeregID: 7}
	for _, tc := range []struct {
		name    string
		shards  int
		batch   []leaderMsg
		opening int   // storage operations at the handler's first instant
		reads   int64 // system-store reads of the whole invocation
	}{
		{"deregister", 1, []leaderMsg{dereg}, 1, 1},
		{"reshard fence", 1, []leaderMsg{fence}, 1, 1},
		{"multi", 1, []leaderMsg{{Session: "m", Seq: 1, Op: OpMulti}}, 1, 1},
		{"txn commit", 1, []leaderMsg{{Session: "m", Seq: 1, Op: OpTxnCommit}}, 1, 1},
		{"multi, two shards", 2, []leaderMsg{{Session: "m", Seq: 1, Op: OpMulti}}, 2, 2},
		// The one operation is a write, the fence's ack.
		{"acks only, two shards", 2, []leaderMsg{dereg, fence}, 1, 0},
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

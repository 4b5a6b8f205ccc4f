package core

// Tests of the cross-shard multi() protocol's two hard cases: a part whose
// commit never comes (the coordinator died or lost its lease between its
// pushes and its commit) and a leader's ownership release racing a commit
// that lands. They drive the deployment through pipeline_test.go's
// in-package session and read the system store directly.

import (
	"slices"
	"strings"
	"testing"

	"faaskeeper/internal/cloud"
	"faaskeeper/internal/cloud/kv"
	"faaskeeper/internal/fksync"
	"faaskeeper/internal/obs"
	"faaskeeper/internal/sim"
	"faaskeeper/internal/txn"
)

// twoShardPaths returns one top-level path per shard of a two-shard
// deployment.
func twoShardPaths() (a, b string) {
	for _, p := range []string{"/a", "/b", "/c", "/d", "/e", "/f"} {
		switch {
		case a == "" && ShardOf(p, 2) == 0:
			a = p
		case b == "" && ShardOf(p, 2) == 1:
			b = p
		}
	}
	return a, b
}

// swapReq is the multi() that sets both paths to v.
func swapReq(a, b, v string) Request {
	ops := []txn.Op{txn.SetData(a, []byte(v), -1), txn.SetData(b, []byte(v), -1)}
	return Request{Op: OpMulti, Path: a, Data: txn.EncodeOps(ops)}
}

// txnResidue lists what no finished multi() may leave behind: a commit
// mark, a pending entry or a held lock on a node item, and a transaction
// record or request pointer.
func txnResidue(d *Deployment, ctx cloud.Ctx) []string {
	var out []string
	for _, ki := range d.System.Scan(ctx) {
		switch {
		case strings.HasPrefix(ki.Key, nodeKeyPrefix):
			n := decodeSysNode(ki.Item)
			if _, locked := ki.Item.Lookup(fksync.LockAttr); locked || n.TxnMark != 0 || len(n.Pending) > 0 {
				out = append(out, ki.Key+" "+ki.Item.String())
			}
		case strings.HasPrefix(ki.Key, "txn:"), strings.HasPrefix(ki.Key, "txnreq:"):
			out = append(out, ki.Key)
		}
	}
	return out
}

// readData reads a node's data from the primary user store.
func readData(t *testing.T, d *Deployment, ctx cloud.Ctx, path string) (string, int32) {
	t.Helper()
	n, _, err := d.PrimaryStore().Read(ctx, path)
	if err != nil {
		t.Errorf("read %s: %v", path, err)
		return "", -1
	}
	return string(n.Data), n.Stat.Version
}

// TestTxnCrashAfterPushesCommitsOnce: the coordinator dies after pushing
// both parts, before the commit. Both leaders drop their stale parts by
// releasing the crashed attempt's locks — so the redelivered attempt need
// not wait out the lease — and that attempt commits exactly once. A reader
// probing the pair in reverse order never sees one half without the other.
func TestTxnCrashAfterPushesCommitsOnce(t *testing.T) {
	var crashedAt sim.Time
	hook := &pipeFaults{}
	hook.crash = func(stage, session string, seq int64) bool {
		if stage != obs.StageTxnPrep || session != "w" || crashedAt != 0 {
			return false
		}
		crashedAt = hook.k.Now()
		return true
	}
	r := newPipeRig(t, 11, Config{WriteShards: 2}, hook)
	pA, pB := twoShardPaths()
	r.k.Go("main", func() {
		setup := r.open("setup")
		setup.do(OpCreate, pA, "0")
		setup.do(OpCreate, pB, "0")
		w := r.open("w")
		done := false
		probes := 0
		r.k.Go("reader", func() {
			for !done {
				vB, _ := readData(t, r.d, w.ctx, pB)
				vA, _ := readData(t, r.d, w.ctx, pA)
				if vA < vB {
					t.Errorf("partial commit observed: %s=%q while %s=%q", pA, vA, pB, vB)
				}
				probes++
				r.k.Sleep(sim.Ms(2))
			}
		})
		resp := w.send(swapReq(pA, pB, "1")).Wait()
		answered := r.k.Now()
		done = true
		if resp.Code != CodeOK {
			t.Fatalf("multi after a coordinator crash: %s", resp.Code)
		}
		if crashedAt == 0 {
			t.Fatal("the coordinator never crashed: the test exercised nothing")
		}
		if answered-crashedAt >= sim.Time(lockLease) {
			t.Errorf("answered %v after the crash: the redelivered attempt waited out the lease, so no leader released", answered-crashedAt)
		}
		r.k.Sleep(sim.Ms(1000))
		for _, p := range []string{pA, pB} {
			if v, ver := readData(t, r.d, w.ctx, p); v != "1" || ver != 1 {
				t.Errorf("%s = %q v%d, want \"1\" v1: committed other than once", p, v, ver)
			}
		}
		// Two attempts minted two ids; the next is the third.
		if id, _ := r.d.Txns.Mint(w.ctx); id != 3 {
			t.Errorf("next txn id = %d, want 3", id)
		}
		if res := txnResidue(r.d, w.ctx); len(res) > 0 {
			t.Errorf("left behind: %v", res)
		}
		if probes == 0 {
			t.Error("the reader never probed")
		}
	})
	r.run()
}

// TestTxnLeaseLostBeforeCommit: the coordinator stalls between its pushes
// and its commit for longer than the lock lease, and a single-op writer
// takes one of the items meanwhile. The commit fails whole: the client
// gets a system error, the writer's value stands, the other half is
// untouched, and no item keeps a mark, a pending entry or a lock.
func TestTxnLeaseLostBeforeCommit(t *testing.T) {
	hook := &pipeFaults{}
	stalled := false
	hook.crash = func(stage, session string, seq int64) bool {
		if stage == obs.StageTxnPrep && session == "w" && !stalled {
			stalled = true
			hook.k.Sleep(sim.Time(lockLease) + sim.Ms(1000))
		}
		return false
	}
	r := newPipeRig(t, 12, Config{WriteShards: 2}, hook)
	pA, pB := twoShardPaths()
	r.k.Go("main", func() {
		setup := r.open("setup")
		setup.do(OpCreate, pA, "0")
		setup.do(OpCreate, pB, "0")
		w := r.open("w")
		fut := w.send(swapReq(pA, pB, "1"))
		r.k.Sleep(sim.Ms(500))
		if resp := setup.do(OpSetData, pA, "single"); resp.Code != CodeOK {
			t.Errorf("single write during the stall: %s", resp.Code)
		}
		if resp := fut.Wait(); resp.Code != CodeSystemError {
			t.Errorf("multi that lost its lease answered %s, want %s", resp.Code, CodeSystemError)
		}
		if !stalled {
			t.Fatal("the coordinator never stalled: the test exercised nothing")
		}
		r.k.Sleep(sim.Ms(1000))
		if v, ver := readData(t, r.d, w.ctx, pA); v != "single" || ver != 1 {
			t.Errorf("%s = %q v%d, want the single write", pA, v, ver)
		}
		if v, ver := readData(t, r.d, w.ctx, pB); v != "0" || ver != 0 {
			t.Errorf("%s = %q v%d, want it untouched", pB, v, ver)
		}
		r.settle() // the single write's pop is carried
		if res := txnResidue(r.d, w.ctx); len(res) > 0 {
			t.Errorf("left behind: %v", res)
		}
	})
	r.run()
}

// TestTxnCommitCheck is TestOpeningReadFeedsAwaitCommit for a fast-path
// multi() message: it delivers one multi() setting /a and /b to the handler
// by hand, in the states a first or repeated delivery can find the two
// pending lists in, and checks the leader's commit check (➊/➋) against each
// — an orphan is popped without costing a poll, a message whose entry is
// already consumed is answered at once, and a coordinator that died after
// its push is replayed at the third poll.
func TestTxnCommitCheck(t *testing.T) {
	const txid = 9
	commit := func(d *Deployment, ctx cloud.Ctx, tm txnMsg) {
		if err := d.Locks.CommitUnlockTx(ctx, multiParts(tm, txid)); err != nil {
			t.Errorf("commit: %v", err)
		}
	}
	for _, tc := range []struct {
		name string
		// between is what happened between the coordinator's push and this
		// delivery; until its commit the coordinator holds both locks.
		between func(d *Deployment, ctx cloud.Ctx, tm txnMsg)

		code          Code
		reads, writes int64 // the handler's system-store operations
		pendingA      []int64
		stored        bool // the user store received the transaction
	}{
		{
			name: "orphan below txid on one target",
			between: func(d *Deployment, ctx cloud.Ctx, tm txnMsg) {
				_, _ = d.System.Update(ctx, nodeKey("/b"), []kv.Update{pendingAppend(5)}, nil)
				commit(d, ctx, tm)
			},
			// The epoch read; /a, /b, the orphan's pop and /b again in the one
			// poll; a watch query per target; both pops.
			code: CodeOK, reads: 6, writes: 3, stored: true,
		},
		{
			name: "delivered again after its pop",
			between: func(d *Deployment, ctx cloud.Ctx, tm txnMsg) {
				commit(d, ctx, tm)
				for _, p := range []string{"/a", "/b"} {
					_, _ = d.System.Update(ctx, nodeKey(p), []kv.Update{kv.ListPopHead{Name: attrPending}}, nil)
				}
				_, _ = d.System.Update(ctx, nodeKey("/a"), []kv.Update{pendingAppend(12)}, nil)
			},
			// The epoch read and /a, whose head is past txid.
			code: CodeSystemError, reads: 2, writes: 0, pendingA: []int64{12},
		},
		{
			name:    "the coordinator died after its push",
			between: func(*Deployment, cloud.Ctx, txnMsg) {},
			// The epoch read, four polls of both targets with the replayed
			// commit after the third, a watch query per target; the replay (a
			// write per item) and both pops.
			code: CodeOK, reads: 11, writes: 4, stored: true,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := newPipeRig(t, 23, Config{}, &pipeFaults{})
			d := r.d
			var s *pipeSession
			var resp Response
			var reads, writes int64
			r.k.Go(leaderProc, func() {
				s = r.open("w")
				s.do(OpCreate, "/a", "0")
				s.do(OpCreate, "/b", "0")
				r.k.Sleep(sim.Ms(200))
				r.settle()

				// The coordinator's half of the multi(), up to the push.
				ops := []txn.ResolvedOp{
					{Type: txn.OpSetData, Path: "/a", Data: []byte("1"), Version: 1},
					{Type: txn.OpSetData, Path: "/b", Data: []byte("1"), Version: 1},
				}
				tm := txnMsg{Ops: ops, ItemPaths: []string{"/a", "/b"}}
				for _, p := range tm.ItemPaths {
					lock, _, err := d.Locks.Acquire(s.ctx, nodeKey(p))
					if err != nil {
						t.Errorf("lock %s: %v", p, err)
						return
					}
					tm.LockTs = append(tm.LockTs, lock.Timestamp)
				}
				tc.between(d, s.ctx, tm)
				s.seq = 3
				s.futs[s.seq] = sim.NewFuture[Response](r.k)
				msg := leaderMsg{Session: s.id, Seq: s.seq, Op: OpMulti, Path: "/a", NodeBlob: tm.encode()}

				r0, w0 := syskv(d)
				r.deliver(s.ctx, txid, msg)
				r1, w1 := syskv(d)
				reads, writes = r1-r0, w1-w0
				resp = s.futs[s.seq].Wait()
				r.k.Sleep(sim.Ms(200))
			})
			r.run()

			if resp.Code != tc.code || s.resps != 3 {
				t.Errorf("answered %s, %d responses in all; want %s and exactly one for each of the three requests", resp.Code, s.resps, tc.code)
			}
			if reads != tc.reads || writes != tc.writes {
				t.Errorf("the handler made %d system-store reads and %d writes, want %d and %d", reads, writes, tc.reads, tc.writes)
			}
			it, _ := d.System.Peek(nodeKey("/a"))
			if got := decodeSysNode(it).Pending; !slices.Equal(got, tc.pendingA) {
				t.Errorf("/a's pending list ends as %v, want %v", got, tc.pendingA)
			}
			it, _ = d.System.Peek(nodeKey("/b"))
			if got := decodeSysNode(it).Pending; len(got) > 0 {
				t.Errorf("/b's pending list ends as %v, want it empty", got)
			}
			stored := slices.ContainsFunc(r.calls, func(c storeCall) bool { return c.mzxid == txid })
			if stored != tc.stored {
				t.Errorf("user store written: %v, want %v", stored, tc.stored)
			}
		})
	}
}

// raceHook lands a cross-shard commit while the leader's ownership release
// is in flight: the leader's first storage operation after its last poll
// is the release, and the hook stretches it while a committer runs.
type raceHook struct {
	k      *sim.Kernel
	leader string
	ops    int
	commit func()
	landed bool
}

func (*raceHook) Crash(string, string, int64) bool { return false }
func (*raceHook) Redeliver(string) bool            { return false }
func (*raceHook) DeliveryDelay(string) sim.Time    { return 0 }
func (h *raceHook) OpDelay() sim.Time {
	if h.k.Current().Name() != h.leader {
		return 0
	}
	if h.ops++; h.ops == txnHeadPolls+1 {
		h.k.Go("committer", func() {
			h.commit()
			h.landed = true
		})
		return sim.Ms(100)
	}
	return 0
}

// TestTxnReleaseLosesToLandedCommit: the commit lands after the leader's
// last poll but before its release is evaluated. The release fails, one
// more poll finds the part's txid at the head, and the leader proceeds:
// its pending entry pops and its ready marker is posted.
func TestTxnReleaseLosesToLandedCommit(t *testing.T) {
	k, d := newTestDeployment(13, Config{})
	hook := &raceHook{k: k, leader: "leader-under-test"}
	k.SetFaultHook(hook)
	ctx := cloud.ClientCtx(d.Cfg.Profile.Home)
	const id, txid = int64(1), int64(5)
	ops := []txn.ResolvedOp{{Type: txn.OpSetData, Path: "/a", Version: 1}}
	k.Go("setup", func() {
		lock, _, err := d.Locks.Acquire(ctx, nodeKey("/a"))
		if err != nil {
			t.Errorf("lock: %v", err)
			return
		}
		hook.commit = func() {
			err := d.Locks.CommitUnlockTx(ctx,
				[]fksync.TxPart{{Lock: lock, Updates: []kv.Update{pendingAppend(txid), kv.Set{Name: attrTxnCommitMark, V: kv.N(id)}}}},
				d.Txns.Commit(id, "w", 1, ops, map[int]int64{0: txid})...)
			if err != nil {
				t.Errorf("commit: %v", err)
			}
		}
		tm := txnMsg{ID: id, Ops: ops, ItemPaths: []string{"/a"}, LockTs: []int64{lock.Timestamp}}
		msg := leaderMsg{Session: "w", Seq: 1, Op: OpTxnCommit, Path: "/a"}
		k.Go(hook.leader, func() {
			p := leaderRun{d: d, ctx: ctx, epochs: map[cloud.Region][]int64{}}
			p.txnPart(decodedMsg{msg: msg, txid: txid}, tm)
			if !hook.landed {
				t.Fatal("the commit did not land during the release: the test exercised nothing")
			}
			rec, found := d.Txns.Lookup(ctx, id)
			if !found || !rec.Ready[0] {
				t.Errorf("leader dropped a part whose commit landed: record %+v (found %v)", rec, found)
			}
			it, _ := d.System.Peek(nodeKey("/a"))
			if n := decodeSysNode(it); len(n.Pending) != 0 || n.TxnMark != id {
				t.Errorf("after the part: pending %v, mark %d; want nothing pending, the mark kept for the apply", n.Pending, n.TxnMark)
			}
		})
	})
	k.Run()
	k.Shutdown()
}

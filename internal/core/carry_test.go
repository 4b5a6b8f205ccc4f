package core

// Tests of the pops an invocation carries to the shard's next one
// (leaderRun.carry): where they run, what a carried head means to
// awaitCommit, what survives a cold start, a crash or a redelivery, and what
// they cost. They ride pipeline_test.go's rig and opening_test.go's
// hand-driven deliveries.

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"faaskeeper/internal/cloud"
	"faaskeeper/internal/obs"
	"faaskeeper/internal/sim"
	"faaskeeper/internal/txn"
)

// pending returns the pending list of path's control record.
func (r *pipeRig) pending(path string) []int64 {
	it, _ := r.d.System.Peek(path)
	return decodeSysNode(it, 0).Pending
}

// TestRedeliveredBatchAfterCarriedPop: a batch delivered again after it
// completed — its pop carried, not run — leaves the user store as it was. A
// warm leader knows its carried head was distributed: the delivery is a
// duplicate, answered as one, and the carried pop runs. A cold one does not:
// it finds its txid at the head and replays step for step, rewriting the
// same object, and carries the pop again.
func TestRedeliveredBatchAfterCarriedPop(t *testing.T) {
	const txid = 9
	for _, tc := range []struct {
		name    string
		cold    bool
		code    Code // the second delivery's answer
		writes  int  // the user-store writes it made
		pending []int64
		// The second delivery's system-store operations: a duplicate is
		// answered on the opening read's word and runs the carried pop; a
		// replay commits on that word too and carries its pop again. A warm
		// opening read takes the record alone, as the first delivery left
		// the epoch lists empty; a cold one reads the epoch item too.
		sysReads, sysWrites int64
	}{
		{"warm: a duplicate", false, CodeSystemError, 0, nil, 1, 1},
		{"cold: a replay", true, CodeOK, 1, []int64{txid}, 2, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := newPipeRig(t, 21, Config{}, &pipeFaults{})
			var first, again Response
			var before, after string
			var writes int
			var pending []int64
			var sysReads, sysWrites int64
			r.k.Go(leaderProc, func() {
				s := r.open("w")
				s.do(OpCreate, "/n", "0")
				r.k.Sleep(sim.Ms(200))
				r.settle()
				msg := r.pushSet(s, "/n", "1", txid)
				r.deliver(s.ctx, txid, msg)
				first = s.futs[msg.Seq].Wait()
				if !r.carried(txid) {
					t.Errorf("txid %d's pop is not carried after its invocation", txid)
				}
				before = r.userNode("/n")
				calls := len(r.calls)

				s.futs[msg.Seq] = sim.NewFuture[Response](r.k)
				r0, w0 := syskv(r.d)
				r.deliverTo(tc.cold, s.ctx, txid, msg)
				r1, w1 := syskv(r.d)
				sysReads, sysWrites = r1-r0, w1-w0
				again = s.futs[msg.Seq].Wait()
				r.k.Sleep(sim.Ms(200))
				after, writes, pending = r.userNode("/n"), len(r.calls)-calls, r.pending("/n")
			})
			r.run()

			if first.Code != CodeOK || again.Code != tc.code {
				t.Errorf("answered %s, then %s; want ok, then %s", first.Code, again.Code, tc.code)
			}
			if writes != tc.writes || sysReads != tc.sysReads || sysWrites != tc.sysWrites {
				t.Errorf("the second delivery made %d user-store writes, %d system-store reads and %d writes; want %d, %d and %d",
					writes, sysReads, sysWrites, tc.writes, tc.sysReads, tc.sysWrites)
			}
			if after != before {
				t.Errorf("user store went from %s to %s", before, after)
			}
			if !slices.Equal(pending, tc.pending) || r.carried(txid) != (tc.pending != nil) {
				t.Errorf("pending list ends as %v (carried: %v), want %v", pending, r.carried(txid), tc.pending)
			}
		})
	}
}

// userNode renders the primary user store's object at path.
func (r *pipeRig) userNode(path string) string {
	n, _, err := r.d.PrimaryStore().Read(cloud.ClientCtx(r.d.Cfg.Profile.Home), path)
	if err != nil {
		return err.Error()
	}
	return fmt.Sprintf("%s %+v", n.Data, n.Stat)
}

// TestEarlyPopRunsCarriedPopFirst: a chunk of two sets on one path opens the
// invocation after one that carried the path's entry. The first set commits
// by the same-path rule and pops in the commit phase (the pop rule), and the
// carried entry ahead of it goes first, so the second set finds its txid at
// the head: no pop fails, no orphan is popped, no poll repeats.
func TestEarlyPopRunsCarriedPopFirst(t *testing.T) {
	r := newPipeRig(t, 21, Config{BatchWrites: true}, &pipeFaults{})
	var resps [3]Response
	var reads, writes int64
	var pending []int64
	r.k.Go(leaderProc, func() {
		s := r.open("w")
		s.do(OpCreate, "/n", "0")
		r.k.Sleep(sim.Ms(200))
		r.settle()
		m1 := r.pushSet(s, "/n", "1", 9)
		r.deliver(s.ctx, 9, m1)
		m2 := r.pushSet(s, "/n", "2", 10)
		m3 := r.pushSet(s, "/n", "3", 11)
		r0, w0 := syskv(r.d)
		r.deliver(s.ctx, 10, m2, m3)
		r1, w1 := syskv(r.d)
		reads, writes, pending = r1-r0, w1-w0, r.pending("/n")
		for i, m := range []leaderMsg{m1, m2, m3} {
			resps[i] = s.futs[m.Seq].Wait()
		}
	})
	r.run()
	for i, resp := range resps {
		if resp.Code != CodeOK {
			t.Errorf("set %d: %s", i+1, resp.Code)
		}
	}
	// The opening read — the record alone: the invocation before left the
	// epoch lists empty — and the second set's poll; the carried pop and the
	// first set's early pop.
	if reads != 2 || writes != 2 {
		t.Errorf("the chunk cost %d system-store reads and %d writes, want 2 and 2", reads, writes)
	}
	if !slices.Equal(pending, []int64{11}) || !r.carried(11) {
		t.Errorf("pending list ends as %v, want the second set's carried entry alone", pending)
	}
}

// TestColdLeaderDropsCarriedPops: a leader invocation in a new sandbox — or
// the retry of one that crashed — starts without the pops its predecessor
// carried. Their entries stay at the heads of their pending lists, and the
// next write on such a path clears it with awaitCommit's orphan pop: one
// read and one write more than the warm path.
func TestColdLeaderDropsCarriedPops(t *testing.T) {
	for _, tc := range []struct {
		name  string
		crash bool // crash the invocation instead of letting the sandbox expire
	}{
		{"cold sandbox", false},
		{"crashed invocation", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			hook := &pipeFaults{}
			r := newPipeRig(t, 5, Config{}, hook)
			leader := r.d.Platform.Function(FnLeader)
			var cb, setA, setB Response
			var colds int64
			crashed := false
			var leftB, leftA []int64
			var reads, writes int64
			r.k.Go("writer", func() {
				s := r.open("w")
				s.do(OpCreate, "/a", "0")
				cb = s.do(OpCreate, "/b", "0") // its pop is carried
				colds = leader.ColdStarts()
				if tc.crash {
					hook.crash = func(stage, session string, seq int64) bool {
						if stage != obs.StageCommit || crashed {
							return false
						}
						crashed = true
						return true
					}
				} else {
					r.k.Sleep(11 * time.Minute) // every sandbox expires
				}
				setA = s.do(OpSetData, "/a", "1")
				colds = leader.ColdStarts() - colds
				r.k.Sleep(sim.Ms(200))
				leftB, leftA = r.pending("/b"), r.pending("/a")

				r0, w0 := syskv(r.d)
				setB = s.do(OpSetData, "/b", "1")
				r.k.Sleep(sim.Ms(200))
				r1, w1 := syskv(r.d)
				reads, writes = r1-r0, w1-w0
			})
			r.run()

			if cb.Code != CodeOK || setA.Code != CodeOK || setB.Code != CodeOK {
				t.Fatalf("answers %s, %s, %s", cb.Code, setA.Code, setB.Code)
			}
			if tc.crash != crashed || !tc.crash && colds != 1 {
				t.Errorf("crashed %v, %d cold leader starts for the set of /a: want the crash, or one cold start", crashed, colds)
			}
			// /b's entry outlived the invocation that forgot it; /a's own is
			// carried by the invocation that ran it.
			if !slices.Equal(leftB, []int64{cb.Txid}) || r.carried(cb.Txid) {
				t.Errorf("/b pending %v after the set of /a (carried: %v), want [%d] left behind", leftB, r.carried(cb.Txid), cb.Txid)
			}
			if !slices.Equal(leftA, []int64{setA.Txid}) {
				t.Errorf("/a pending %v, want [%d]", leftA, setA.Txid)
			}
			// Opening read — the record alone: the set of /a ran to its end
			// and left the epoch lists empty — and the re-poll after the
			// orphan pop; the follower's lock and commit, the orphan pop, /a's
			// carried pop.
			if reads != 2 || writes != 4 {
				t.Errorf("the set of /b cost %d system-store reads and %d writes, want 2 and 4", reads, writes)
			}
			if got := r.pending("/b"); !slices.Equal(got, []int64{setB.Txid}) {
				t.Errorf("/b pending %v, want [%d]: the orphan pop missed the leftover", got, setB.Txid)
			}
		})
	}
}

// TestSamePathWriteAfterCarriedPop: back-to-back sets on one path. Every
// invocation finds the previous set's carried entry at the head and its own
// txid behind it, commits on the opening read's word, and runs the carried
// pop under its flush: one system-store read (the record, whose view also
// carries the watch registrations; the invocation before left the epoch
// lists empty, so the opening read skips them) and three writes (the
// follower's lock and commit, one pop) per write.
func TestSamePathWriteAfterCarriedPop(t *testing.T) {
	r := newPipeRig(t, 11, Config{}, nil)
	const writes = 20
	var reads, sysWrites int64
	r.k.Go("writer", func() {
		s := r.open("w")
		s.do(OpCreate, "/n", "0")
		r.k.Sleep(sim.Ms(200))
		r0, w0 := syskv(r.d)
		for i := 0; i < writes; i++ {
			if resp := s.do(OpSetData, "/n", "x"); resp.Code != CodeOK {
				t.Errorf("set %d: %s", i, resp.Code)
			}
		}
		r.k.Sleep(sim.Ms(200))
		r1, w1 := syskv(r.d)
		reads, sysWrites = r1-r0, w1-w0
	})
	r.run()

	if reads != writes || sysWrites != 3*writes {
		t.Errorf("%d back-to-back sets on one path cost %d system-store reads and %d writes, want %d and %d (a first poll that misses the follower's commit adds a read: pick another seed)",
			writes, reads, sysWrites, writes, 3*writes)
	}
	if n := r.counter("pop_overlapped"); n != writes {
		t.Errorf("%d pops ran under a flush, want %d: one carried pop per set", n, writes)
	}
}

// TestCarriedDeleteCollectsTombstone: a delete's pop is carried with its
// tombstone collection. Run under the next invocation's flush of another
// path, it collects the tombstone, and the path is created again; run ahead
// of a create of the same path — the same-path rule commits the create —
// the list it leaves holds the create's entry, so the item stays.
func TestCarriedDeleteCollectsTombstone(t *testing.T) {
	r := newPipeRig(t, 13, Config{}, nil)
	var afterOther, afterSame bool
	var recreated, again Response
	var created sysNode
	var user string
	r.k.Go("writer", func() {
		s := r.open("w")
		for _, p := range []string{"/y", "/x"} {
			s.do(OpCreate, p, "0")
		}
		s.do(OpDelete, "/x", "")
		s.do(OpSetData, "/y", "1") // runs the delete's carried pop
		_, afterOther = r.d.System.Peek("/x")
		recreated = s.do(OpCreate, "/x", "1")

		s.do(OpDelete, "/x", "")
		again = s.do(OpCreate, "/x", "2") // runs the delete's carried pop
		r.k.Sleep(sim.Ms(200))
		item, ok := r.d.System.Peek("/x")
		afterSame, created, user = ok, decodeSysNode(item, 0), r.userNode("/x")
	})
	r.run()

	if afterOther {
		t.Error("the carried delete's pop, run under another path's flush, left the tombstone")
	}
	if recreated.Code != CodeOK || again.Code != CodeOK {
		t.Fatalf("creates after the deletes answered %s, %s", recreated.Code, again.Code)
	}
	if !afterSame || !created.Exists || !slices.Equal(created.Pending, []int64{again.Txid}) {
		t.Errorf("after delete → create: item present %v, %+v; want the created node with only its own entry pending", afterSame, created)
	}
	if user[:1] != "2" {
		t.Errorf("user store /x = %s, want the second re-create's data", user)
	}
}

// TestPopLeavesTombstoneToALaterMessage: one invocation holds a multi() that
// sets /a and deletes /b, then a set of /c, then a create whose follower has
// pushed and not yet committed: it still holds its node's lock, and the
// leader replays its commit. The multi()'s pop of /b runs under the set's
// flush. When the create is of /b, it commits on /b's record, so the pop
// leaves the tombstone alone (pipeline: holdsTarget looks at every target of
// the multi(), not its anchor /a); when it is of /d, the pop collects /b.
// So the /b invocation makes one system-store write fewer than the /d one:
// the collection's conditional delete. With holdsTarget judging a multi() by
// its anchor alone (ranging over dm.keys[:min(dm.targets, 1)]) the pop tries
// to collect /b too, the create's lock fails the delete, and both
// invocations make as many writes; no other test or check notices.
func TestPopLeavesTombstoneToALaterMessage(t *testing.T) {
	writes := map[string]int64{}
	for _, path := range []string{"/b", "/d"} {
		r := newPipeRig(t, 21, Config{}, &pipeFaults{})
		var created Response
		var b sysNode
		var bStored bool
		r.k.Go(leaderProc, func() {
			s := r.open("w")
			for _, p := range []string{"/a", "/b", "/c"} {
				s.do(OpCreate, p, "0")
			}
			r.k.Sleep(sim.Ms(200))
			r.settle()
			multi := r.commit(s, r.lockOps(s, true, txn.SetData("/a", []byte("1"), -1), txn.Delete("/b", -1)), 9)
			msgs := []leaderMsg{multi, r.pushSet(s, "/c", "1", 10), r.lockOps(s, false, txn.Create(path, []byte("c"), 0))}
			_, w0 := syskv(r.d)
			r.deliver(s.ctx, 9, msgs...)
			_, w1 := syskv(r.d)
			writes[path] = w1 - w0
			created = s.futs[msgs[2].Seq].Wait()
			item, ok := r.d.System.Peek("/b")
			b, bStored = decodeSysNode(item, 0), ok
		})
		r.run()
		if created.Code != CodeOK {
			t.Fatalf("create %s: %s", path, created.Code)
		}
		if bStored != (path == "/b") || (path == "/b" && !b.Exists) {
			t.Errorf("with the create of %s: /b's item stored %v (%+v); want it collected only when nothing commits on it", path, bStored, b)
		}
	}
	if writes["/b"] != writes["/d"]-1 {
		t.Errorf("the invocation made %d system-store writes with the create of /b, %d with /d: want one fewer, no collection of /b's tombstone",
			writes["/b"], writes["/d"])
	}
}

package core

// Tests of the fire records (fireRecords): a commit at txid t moves every
// live group its changes fire into the record's "f<t>.<type>" in the same
// conditional write, the leader's claim fires exactly those, and the pop of
// t — or, on a parent no pop of t reaches, t's claim round — removes them.
// They ride pipeline_test.go's rig and opening_test.go's hand-driven
// deliveries.

import (
	"slices"
	"testing"

	"faaskeeper/internal/sim"
)

// fireRecordsOf lists the fire records on path's control record.
func (r *pipeRig) fireRecordsOf(path string) (names []string) {
	it, _ := r.d.System.Peek(path)
	for _, a := range it {
		if _, _, ok := parseFire(a.Name); ok {
			names = append(names, a.Name)
		}
	}
	return names
}

// TestRegistrationBetweenLockAndCommitIsMoved: a data watch registered
// while a set_data holds its node's lock, before the commit, lands in the
// live group the commit then moves: the move is the table's, so it takes
// the group as it is when the commit lands, and no commit is retried. The
// set's fire record holds the registration, and the watch fires at the
// set's txid.
func TestRegistrationBetweenLockAndCommitIsMoved(t *testing.T) {
	const txid = 9
	r := newPipeRig(t, 21, Config{}, &pipeFaults{})
	var v *pipeSession
	var front Frontier
	var moved []string
	var answer Response
	r.k.Go(leaderProc, func() {
		s := r.open("w")
		v = r.open("v")
		s.do(OpCreate, "/n", "0")
		r.k.Sleep(sim.Ms(200))
		r.settle()
		msg := r.lockSet(s, "/n", "1")
		var err error
		if _, front, err = r.d.RegisterWatch(v.ctx, "/n", WatchData, v.id); err != nil {
			t.Errorf("register: %v", err)
		}
		if err := r.d.replayCommit(s.ctx, msg, txid); err != nil {
			t.Errorf("commit: %v", err)
		}
		var buf fireBuf
		it, _ := r.d.System.Peek("/n")
		moved = it.Get(fireRecords(&buf, txid)[WatchData-1]).SL()
		r.deliver(s.ctx, txid, msg)
		answer = s.futs[msg.Seq].Wait()
		r.k.Sleep(sim.Ms(2000))
	})
	r.run()

	if answer.Code != CodeOK {
		t.Fatalf("set: %s", answer.Code)
	}
	if front.Zxid >= txid || !slices.Equal(moved, []string{"v"}) {
		t.Errorf("registration at frontier %d; the commit's fire record holds %v: want it below %d, and [v]", front.Zxid, moved, txid)
	}
	if len(v.notes) != 1 || v.notes[0].Txid != txid {
		t.Errorf("v heard %+v, want one notification at txid %d", v.notes, txid)
	}
}

// TestChildFireRecordLeavesWithItsRound: a create under a watched parent
// fires the parent's child group, whose fire record no pop of the create
// reaches: the parent has no pending entry. The create's claim round
// removes it, in place of the clear it made while claims read the live
// group, so the create costs as many system-store writes as it did then —
// 9: the follower's two locks and its commit transaction of two items, the
// round's removal and epoch entry, the pop, the watch function's exit, and
// v's re-arm on its notification (the rig's sessions re-arm a data watch) —
// and leaves no fire record on either record.
func TestChildFireRecordLeavesWithItsRound(t *testing.T) {
	r := newPipeRig(t, 17, Config{}, &pipeFaults{})
	var v *pipeSession
	var writes int64
	var left []string
	r.k.Go("main", func() {
		w := r.open("w")
		v = r.open("v")
		w.do(OpCreate, "/p", "0")
		if _, _, err := r.d.RegisterWatch(v.ctx, "/p", WatchChild, v.id); err != nil {
			t.Errorf("register: %v", err)
		}
		r.k.Sleep(sim.Ms(200))
		r.settle()
		_, w0 := syskv(r.d)
		if resp := w.do(OpCreate, "/p/c", "1"); resp.Code != CodeOK {
			t.Errorf("create: %s", resp.Code)
		}
		r.k.Sleep(sim.Ms(2000))
		r.settle()
		_, w1 := syskv(r.d)
		writes = w1 - w0
		left = append(r.fireRecordsOf("/p"), r.fireRecordsOf("/p/c")...)
	})
	r.run()

	if len(v.notes) != 1 || v.notes[0].Event != EventChildrenChanged {
		t.Errorf("v heard %+v, want one child notification", v.notes)
	}
	if writes != 9 || len(left) != 0 {
		t.Errorf("the create made %d system-store writes and left fire records %v: want 9, and none", writes, left)
	}
}

// TestOrphanPopReturnsItsFireRecords: a set at o commits, moving v's data
// watch into its fire record, and is never delivered: an orphan. The next
// set's commit check pops it. o was never distributed, so nothing fires for
// it: v's registration goes back to the live group, and no fire record is
// left. A commit that lands after the pop — here the leader's replay of the
// next set's — moves it, and it fires with that set; one that landed behind
// o before the pop moved the live group without it, so it waits, live, for
// the change after.
func TestOrphanPopReturnsItsFireRecords(t *testing.T) {
	const o, txid = 9, 10
	for _, tc := range []struct {
		name   string
		behind bool    // the next set committed before its delivery
		heard  []int64 // the txids v hears of
	}{
		{"next commit after the orphan pop", false, []int64{txid}},
		{"next commit behind the orphan", true, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := newPipeRig(t, 21, Config{}, &pipeFaults{})
			var v *pipeSession
			var answer Response
			var left, live []string
			r.k.Go(leaderProc, func() {
				s := r.open("w")
				v = r.open("v")
				s.do(OpCreate, "/n", "0")
				v.arm("/n")
				r.k.Sleep(sim.Ms(200))
				r.settle()
				r.pushSet(s, "/n", "1", o) // committed, never delivered
				var msg leaderMsg
				if tc.behind {
					msg = r.pushSet(s, "/n", "2", txid)
				} else {
					msg = r.lockSet(s, "/n", "2")
				}
				r.deliver(s.ctx, txid, msg)
				answer = s.futs[msg.Seq].Wait()
				r.k.Sleep(sim.Ms(2000))
				r.settle()
				left = r.fireRecordsOf("/n")
				it, _ := r.d.System.Peek("/n")
				live = it.Get(attrWatchData).SL()
			})
			r.run()

			if answer.Code != CodeOK {
				t.Fatalf("set: %s", answer.Code)
			}
			var heard []int64
			for _, n := range v.notes {
				heard = append(heard, n.Txid)
			}
			if !slices.Equal(heard, tc.heard) {
				t.Errorf("v heard of txids %v, want %v", heard, tc.heard)
			}
			// Live: v's registration, or its re-arm on its notification.
			if len(left) != 0 || !slices.Equal(live, []string{"v"}) {
				t.Errorf("fire records %v and live group %v left, want none and [v]", left, live)
			}
		})
	}
}

// TestColdReplayKeepsTheReArmedWatch: a set fires v's data watch, its batch
// completes with its pop carried, v re-arms on the notification, and the
// batch is delivered again to a cold sandbox, which replays it step for
// step. The replay fires the set's fire record again — the registration the
// set moved, delivered already — and neither fires nor strips v's re-arm,
// which landed after the set's commit: the duplicate carries the set's
// txid, at or below the re-arm's frontier, so a client ignores it
// (fkclient's watchEntry.fires), and the re-arm is still on the record when
// the replay is answered. While the claim read the live group, the replay
// fired the re-arm at the set's txid and cleared it.
func TestColdReplayKeepsTheReArmedWatch(t *testing.T) {
	const txid = 9
	r := newPipeRig(t, 21, Config{}, &pipeFaults{})
	var v *pipeSession
	var front Frontier
	var live []string
	var heard int
	r.k.Go(leaderProc, func() {
		s := r.open("w")
		v = r.open("v")
		s.do(OpCreate, "/n", "0")
		v.arm("/n")
		r.k.Sleep(sim.Ms(200))
		r.settle()
		msg := r.pushSet(s, "/n", "1", txid)
		r.deliver(s.ctx, txid, msg)
		s.futs[msg.Seq].Wait()
		r.k.Sleep(sim.Ms(2000)) // v hears of the set and re-arms
		heard = len(v.notes)
		it, _ := r.d.System.Peek("/n")
		front = Frontier{Zxid: it.Get(attrMzxid).Num()}

		s.futs[msg.Seq] = sim.NewFuture[Response](r.k)
		r.deliverTo(true, s.ctx, txid, msg)
		s.futs[msg.Seq].Wait()
		it, _ = r.d.System.Peek("/n")
		live = it.Get(attrWatchData).SL()
		r.k.Sleep(sim.Ms(2000))
	})
	r.run()

	if heard != 1 || front.Zxid != txid {
		t.Fatalf("v heard %d notifications before the replay and re-armed at frontier %d, want one and %d", heard, front.Zxid, txid)
	}
	if !slices.Equal(live, []string{"v"}) {
		t.Errorf("v's re-arm: live group %v once the replay is answered, want [v]: the replay stripped it", live)
	}
	for _, n := range v.notes {
		if n.Txid > front.Zxid {
			t.Errorf("v heard txid %d, above its re-arm's frontier %d: the replay fired the re-arm", n.Txid, front.Zxid)
		}
	}
}

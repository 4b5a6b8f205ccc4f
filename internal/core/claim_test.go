package core

// Tests of the watch claim's round (queryWatches, claimRound): the epoch
// entry, and the removal of a parent's child fire record, go out together;
// a target's fire records go with its pop. On one shard the handler spawns
// the round and goes on to the flush: the round is joined before the next
// message's round and before the chunk's answers and deliveries. They ride
// pipeline_test.go's rig, whose fault hook holds storage operations open by
// process name.

import (
	"slices"
	"testing"

	"faaskeeper/internal/sim"
)

// TestWatchClaimIsOneRound: a set_data that fires one data watch makes one
// claim write — the region's epoch write, in a process of its own, and no
// clear: the node's fire record goes with its pop. With the round's
// process held open for hold, the claim (leader.watchquery) holds none of
// it: the handler runs none of the round's writes and does not wait for
// them.
func TestWatchClaimIsOneRound(t *testing.T) {
	hold := sim.Ms(100)
	hook := &pipeFaults{}
	holding := false
	starts := map[string][]sim.Time{}
	var r *pipeRig
	hook.hold = func(proc string) sim.Time {
		if !holding || proc != claimProc && !slices.Contains(r.d.epochProcs, proc) {
			return 0
		}
		starts[proc] = append(starts[proc], hook.k.Now())
		return hold
	}
	r = newPipeRig(t, 13, Config{}, hook)
	var v *pipeSession
	r.k.Go("main", func() {
		w := r.open("w")
		v = r.open("v")
		w.do(OpCreate, "/x", "0")
		v.arm("/x")
		r.k.Sleep(sim.Ms(200))
		holding = true
		if resp := w.do(OpSetData, "/x", "1"); resp.Code != CodeOK {
			t.Errorf("set: %s", resp.Code)
		}
		holding = false
		r.k.Sleep(sim.Ms(2000))
	})
	r.run()

	if len(v.notes) != 1 {
		t.Fatalf("%d notifications, want one", len(v.notes))
	}
	if claim := sim.Ms(r.d.Phase("leader.watchquery").Max()); claim >= hold {
		t.Errorf("the claim took %v with the round's writes held %v: the handler waited for the round", claim, hold)
	}
	clr, app := starts[claimProc], starts["leader-epoch-"+string(r.d.Cfg.Profile.Home)]
	if len(clr) != 0 || len(app) != 1 {
		t.Errorf("a clear started at %v, the epoch write at %v: want the epoch write alone", clr, app)
	}
}

// TestBatchedCommitFindsClaimCleared: under BatchWrites two creates under
// /p ride one chunk, and the first fires /p's child watch. The first's
// commit moved the group into its own fire record, so the second's commit
// moved nothing, and its check, which reads /p's record while the first's
// round — the removal of that fire record — is held open, finds no fire
// record of its own txid and fires nothing: the watch is delivered once.
// A claim that fired the record's live group, or any fire record it found,
// would fire it a second time.
func TestBatchedCommitFindsClaimCleared(t *testing.T) {
	hold := sim.Ms(100)
	hook := &pipeFaults{}
	holding, held := false, 0
	hook.hold = func(proc string) sim.Time {
		if !holding || proc != claimProc {
			return 0
		}
		held++
		return hold
	}
	r := newPipeRig(t, 21, Config{BatchWrites: true}, hook)
	watch := r.d.Platform.Function(FnWatch)
	var deliveries int64
	r.k.Go(leaderProc, func() {
		w, v := r.open("w"), r.open("v")
		w.do(OpCreate, "/p", "0")
		if _, _, err := r.d.RegisterWatch(v.ctx, "/p", WatchChild, v.id); err != nil {
			t.Errorf("register /p: %v", err)
		}
		r.k.Sleep(sim.Ms(200))
		r.settle()
		before := watch.Invocations()
		holding = true
		msgs := []leaderMsg{r.pushCreate(w, "/p/a", 9), r.pushCreate(w, "/p/b", 10)}
		r.deliver(w.ctx, 9, msgs...)
		holding = false
		for _, m := range msgs {
			if resp := w.futs[m.Seq].Wait(); resp.Code != CodeOK {
				t.Errorf("create: %s", resp.Code)
			}
		}
		r.k.Sleep(sim.Ms(2000))
		deliveries = watch.Invocations() - before
	})
	r.run()

	if held == 0 {
		t.Fatal("no clear was held: the test holds no window")
	}
	if deliveries != 1 {
		t.Errorf("the child watch on /p was delivered %d times, want once: the second create fired the group again", deliveries)
	}
}

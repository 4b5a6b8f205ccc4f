package core

// Tests of the watch claim's round (queryWatches, claimRound): the clears
// of the fired groups and the epoch entry go out together and are joined
// before the message's commit phase ends. They ride pipeline_test.go's rig,
// whose fault hook holds storage operations open by process name.

import (
	"slices"
	"strings"
	"testing"

	"faaskeeper/internal/sim"
)

// roundProc reports whether proc is the leader's handler or one of the
// processes a claim round spawns.
func roundProc(proc string) bool {
	return proc == leaderProc || proc == claimProc || strings.HasPrefix(proc, "leader-epoch-")
}

// TestWatchClaimIsOneRound: a set_data that fires one data watch makes two
// claim writes — the clear of the node's group and the region's epoch
// append. With every operation of the leader's handler and of the round's
// processes held open for hold, the claim (leader.watchquery, which holds
// the round and nothing else) takes one hold plus a write: the two writes
// start at one instant, the append in its own process. Issued one after the
// other they took two holds.
func TestWatchClaimIsOneRound(t *testing.T) {
	hold := sim.Ms(100)
	hook := &pipeFaults{}
	holding := false
	starts := map[string][]sim.Time{}
	hook.hold = func(proc string) sim.Time {
		if !holding || !roundProc(proc) {
			return 0
		}
		starts[proc] = append(starts[proc], hook.k.Now())
		return hold
	}
	r := newPipeRig(t, 13, Config{}, hook)
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
	claim := sim.Ms(r.d.Phase("leader.watchquery").Max())
	if claim < hold || claim >= hold*3/2 {
		t.Errorf("the claim took %v with each write held %v: want one hold plus a write, not two holds", claim, hold)
	}
	epoch := "leader-epoch-" + string(r.d.Cfg.Profile.Home)
	if app := starts[epoch]; len(app) != 1 || !slices.Contains(starts[leaderProc], app[0]) {
		t.Errorf("the epoch append started at %v in %s, the handler's operations at %v: want one append, at the instant of the handler's clear",
			app, epoch, starts[leaderProc])
	}
}

// TestWatchClaimRoundOneAppendPerRegion: a create that fires an exists
// watch on its node and a child watch on its parent claims both in one
// round of three writes started at one instant — the node's clear in the
// handler, the parent's clear and the region's one epoch append, carrying
// both ids, each in a process of its own — and the epoch item holds both
// ids once the create is answered.
func TestWatchClaimRoundOneAppendPerRegion(t *testing.T) {
	hook := &pipeFaults{}
	holding := false
	starts := map[string][]sim.Time{}
	hook.hold = func(proc string) sim.Time {
		if holding && roundProc(proc) {
			starts[proc] = append(starts[proc], hook.k.Now())
		}
		return 0
	}
	r := newPipeRig(t, 17, Config{}, hook)
	home := r.d.Cfg.Profile.Home
	key := epochKeyPrefix + string(home)
	var inFlight []int64
	r.k.Go("main", func() {
		w, v := r.open("w"), r.open("v")
		w.do(OpCreate, "/p", "0")
		for _, reg := range []struct {
			path string
			wt   WatchType
		}{{"/p/c", WatchExists}, {"/p", WatchChild}} {
			if _, _, err := r.d.RegisterWatch(v.ctx, reg.path, reg.wt, v.id); err != nil {
				t.Errorf("register %s: %v", reg.path, err)
			}
		}
		r.k.Sleep(sim.Ms(200))
		holding = true
		if resp := w.do(OpCreate, "/p/c", "1"); resp.Code != CodeOK {
			t.Errorf("create: %s", resp.Code)
		}
		holding = false
		it, _ := r.d.System.Peek(key)
		inFlight = it.Get(attrEpochList).NL()
		r.k.Sleep(sim.Ms(2000))
	})
	r.run()

	want := []int64{WatchID("/p/c", WatchExists), WatchID("/p", WatchChild)}
	if !slices.Equal(inFlight, want) {
		t.Errorf("epoch list after the create = %v, want %v", inFlight, want)
	}
	app, clr := starts["leader-epoch-"+string(home)], starts[claimProc]
	if len(app) != 1 || len(clr) != 1 || app[0] != clr[0] || !slices.Contains(starts[leaderProc], app[0]) {
		t.Errorf("round writes started at %v (epoch append), %v (spawned clear), handler ops %v: want one of each, with a handler op, at one instant",
			app, clr, starts[leaderProc])
	}
}

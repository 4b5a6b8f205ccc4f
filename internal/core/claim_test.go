package core

// Tests of the watch claim's round (queryWatches, claimRound): the clears
// of the fired groups and the epoch entry go out together. On one shard the
// handler spawns them all and goes on to the flush: the round is joined
// before the next commit check reads a record and before the chunk's
// answers and deliveries. They ride pipeline_test.go's rig, whose fault
// hook holds storage operations open by process name.

import (
	"slices"
	"testing"

	"faaskeeper/internal/obs"
	"faaskeeper/internal/sim"
)

// roundProc reports whether proc is one of the processes a claim round
// spawns.
func roundProc(d *Deployment, proc string) bool {
	return proc == claimProc || slices.Contains(d.epochProcs, proc)
}

// TestWatchClaimIsOneRound: a set_data that fires one data watch makes two
// claim writes — the clear of the node's group and the region's epoch
// write — each in a process of its own, started at one instant. With the
// round's processes held open for hold, the claim (leader.watchquery) holds
// none of it: the handler runs none of the round's writes and does not wait
// for them.
func TestWatchClaimIsOneRound(t *testing.T) {
	hold := sim.Ms(100)
	hook := &pipeFaults{}
	holding := false
	starts := map[string][]sim.Time{}
	var r *pipeRig
	hook.hold = func(proc string) sim.Time {
		if !holding || !roundProc(r.d, proc) {
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
	if len(clr) != 1 || len(app) != 1 || clr[0] != app[0] {
		t.Errorf("the clear started at %v, the epoch write at %v: want one of each, at one instant", clr, app)
	}
}

// TestWatchClaimRoundOneAppendPerRegion: a create that fires an exists
// watch on its node and a child watch on its parent claims both in one
// round of three writes started at one instant — the node's clear, the
// parent's clear and the region's one epoch write, setting both groups'
// entries, each in a process of its own — and the epoch item lists both
// entries, named by the create's txid and the group's index, once the
// create is answered.
func TestWatchClaimRoundOneAppendPerRegion(t *testing.T) {
	hook := &pipeFaults{}
	holding := false
	starts := map[string][]sim.Time{}
	var r *pipeRig
	hook.hold = func(proc string) sim.Time {
		if holding && roundProc(r.d, proc) {
			starts[proc] = append(starts[proc], hook.k.Now())
		}
		return 0
	}
	r = newPipeRig(t, 17, Config{}, hook)
	home := r.d.Cfg.Profile.Home
	key := epochKeyPrefix + string(home)
	var inFlight []int64
	var names []string
	var txid int64
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
		resp := w.do(OpCreate, "/p/c", "1")
		if resp.Code != CodeOK {
			t.Errorf("create: %s", resp.Code)
		}
		holding = false
		it, _ := r.d.System.Peek(key)
		inFlight, txid = epochUnion(nil, it), resp.Txid
		for _, a := range it {
			names = append(names, a.Name)
		}
		r.k.Sleep(sim.Ms(2000))
	})
	r.run()

	want := []int64{WatchID("/p/c", WatchExists), WatchID("/p", WatchChild)}
	if !slices.Equal(inFlight, want) {
		t.Errorf("epoch ids after the create = %v, want %v", inFlight, want)
	}
	if e0, e1 := string(appendEntryName(nil, entryPrefix(0), txid, 0)), string(appendEntryName(nil, entryPrefix(0), txid, 1)); !slices.Equal(names, []string{e0, e1}) {
		t.Errorf("epoch entries after the create = %v, want %v", names, []string{e0, e1})
	}
	app, clr := starts["leader-epoch-"+string(home)], starts[claimProc]
	if len(app) != 1 || len(clr) != 2 || clr[0] != app[0] || clr[1] != app[0] {
		t.Errorf("round writes started at %v (epoch write), %v (clears): want one epoch write and two clears, at one instant",
			app, clr)
	}
}

// TestWatchClaimRunsUnderFlush: on one shard a set_data that fires a data
// watch flushes while its claim round is in flight. With the round's clear
// and epoch write held open for hold and the flush unheld, the store write
// starts before the round lands, and the answer leaves about max(flush,
// hold) after the round started, not hold plus the flush; the epoch item
// holds the id by the time the answer arrives.
func TestWatchClaimRunsUnderFlush(t *testing.T) {
	hold := sim.Ms(100)
	hook := &pipeFaults{}
	holding := false
	var round []sim.Time
	var r *pipeRig
	hook.hold = func(proc string) sim.Time {
		if !holding || !roundProc(r.d, proc) {
			return 0
		}
		round = append(round, hook.k.Now())
		return hold
	}
	r = newPipeRig(t, 13, Config{}, hook)
	key := epochKeyPrefix + string(r.d.Cfg.Profile.Home)
	var v *pipeSession
	var seq int64
	var inFlight []int64
	r.k.Go("main", func() {
		w := r.open("w")
		v = r.open("v")
		w.do(OpCreate, "/x", "0")
		v.arm("/x")
		r.k.Sleep(sim.Ms(200))
		holding = true
		resp := w.do(OpSetData, "/x", "1")
		if resp.Code != CodeOK {
			t.Errorf("set: %s", resp.Code)
		}
		holding = false
		seq = w.seq
		it, _ := r.d.System.Peek(key)
		inFlight = epochUnion(nil, it)
		r.k.Sleep(sim.Ms(2000))
	})
	r.run()

	if len(v.notes) != 1 {
		t.Fatalf("%d notifications, want one", len(v.notes))
	}
	if len(round) == 0 {
		t.Fatal("no write of the round was held: the test holds no window")
	}
	trace := obs.TraceOf("w", seq)
	write, answer := r.span(trace, obs.SpanStoreWrite), r.span(trace, obs.StageRespond)
	flush, took := write.End-write.Start, answer.Start-round[0]
	if write.Start >= round[0]+hold {
		t.Errorf("the store write started %v after the round, which was held %v: the flush waited for the round", write.Start-round[0], hold)
	}
	if took < hold || took >= hold+flush {
		t.Errorf("answered %v after the round started, with the round held %v and a %v flush: want at least the hold and under their sum", took, hold, flush)
	}
	if wid := WatchID("/x", WatchData); !slices.Contains(inFlight, wid) {
		t.Errorf("the epoch item listed %v when the answer arrived, want it to carry %d", inFlight, wid)
	}
}

// TestBatchedCommitFindsClaimCleared: under BatchWrites two creates under
// /p ride one chunk, and the first fires /p's child watch. Its clear is
// held open, yet the second's commit check, which reads /p's record, waits
// for the round: it finds the group cleared and fires nothing, so the watch
// is delivered once. A round joined only before the chunk completes would
// leave the clear in flight under that read, which would fire the group a
// second time.
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

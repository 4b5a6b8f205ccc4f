package core

// Tests of the watch claim's round (queryWatches, claimRound): the epoch
// entry, and the removal of a parent's child fire record, go out together;
// a target's fire records go with its pop. On one shard the handler spawns
// the round and goes on to the flush: the round is joined before the next
// message's round and before the chunk's answers and deliveries. They ride
// pipeline_test.go's rig, whose fault hook holds storage operations open by
// process name.

import (
	"fmt"
	"slices"
	"testing"

	"faaskeeper/internal/cloud/kv"
	"faaskeeper/internal/obs"
	"faaskeeper/internal/sim"
	"faaskeeper/internal/znode"
)

// roundProc reports whether proc is one of the processes a claim round
// spawns.
func roundProc(d *Deployment, proc string) bool {
	return proc == claimProc || slices.Contains(d.epochProcs, proc)
}

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
	if len(clr) != 0 || len(app) != 1 {
		t.Errorf("a clear started at %v, the epoch write at %v: want the epoch write alone", clr, app)
	}
}

// TestWatchClaimRoundOneAppendPerRegion: a create that fires an exists
// watch on its node and a child watch on its parent claims both in one
// round of two writes started at one instant — the removal of the parent's
// child fire record, which no pop of the create reaches, and the region's
// one epoch write, setting both groups' entries, each in a process of its
// own — and the epoch item lists both entries, named by the create's txid
// and the group's index, once the create is answered; once every write has
// settled neither record keeps a fire record.
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
	var node, parent kv.Item
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
		r.settle()
		node, _ = r.d.System.Peek("/p/c")
		parent, _ = r.d.System.Peek("/p")
	})
	r.run()

	want := []int64{WatchID("/p/c", WatchExists), txid, WatchID("/p", WatchChild), txid}
	if !slices.Equal(inFlight, want) {
		t.Errorf("epoch ids after the create = %v, want %v", inFlight, want)
	}
	if e0, e1 := string(appendEntryName(nil, entryPrefix(0), txid, 0)), string(appendEntryName(nil, entryPrefix(0), txid, 1)); !slices.Equal(names, []string{e0, e1}) {
		t.Errorf("epoch entries after the create = %v, want %v", names, []string{e0, e1})
	}
	app, clr := starts["leader-epoch-"+string(home)], starts[claimProc]
	if len(app) != 1 || len(clr) != 1 || clr[0] != app[0] {
		t.Errorf("round writes started at %v (epoch write), %v (removals): want one of each, at one instant", app, clr)
	}
	for _, a := range append(node, parent...) {
		if _, _, fire := parseFire(a.Name); fire {
			t.Errorf("fire record %s = %v left once every write settled", a.Name, a.V)
		}
	}
}

// TestWatchClaimRunsUnderFlush: on one shard a set_data that fires a data
// watch flushes while its claim round is in flight. With the round's epoch
// write held open for hold and the flush unheld, the store write
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

// TestRootChildFireIsEachCommits: on two shards, each top-level create moves
// the root's live child group into its own fire record, under the root's
// lock, so the two shards' leaders never race for one group. Session a
// registers before a create on shard 0, b between it and a create on shard
// 1: a hears of the first create alone and b of the second alone, and once
// both are answered the root's record keeps no live child group and, each
// claim round removing its own, no fire record.
func TestRootChildFireIsEachCommits(t *testing.T) {
	r := newPipeRig(t, 6, Config{WriteShards: 2}, &pipeFaults{})
	var paths [2]string
	for i := 0; paths[0] == "" || paths[1] == ""; i++ {
		if p := fmt.Sprintf("/n%d", i); paths[ShardOf(p, 2)] == "" {
			paths[ShardOf(p, 2)] = p
		}
	}
	var sessions [2]*pipeSession
	var txids [2]int64
	var root kv.Item
	r.k.Go("main", func() {
		w := r.open("w")
		for i, p := range paths {
			sessions[i] = r.open(fmt.Sprint("s", i))
			if _, _, err := r.d.RegisterWatch(sessions[i].ctx, znode.Root, WatchChild, sessions[i].id); err != nil {
				t.Errorf("register: %v", err)
			}
			txids[i] = w.do(OpCreate, p, "0").Txid
		}
		r.k.Sleep(sim.Ms(2000))
		root, _ = r.d.System.Peek(znode.Root)
	})
	r.run()

	for i, s := range sessions {
		if len(s.notes) != 1 || s.notes[0].Txid != txids[i] || s.notes[0].Event != EventChildrenChanged {
			t.Errorf("%s heard %+v, want one child notification at txid %d", s.id, s.notes, txids[i])
		}
	}
	for _, a := range root {
		if _, _, fire := parseFire(a.Name); fire || a.Name == attrWatchChild {
			t.Errorf("the root's record keeps %s = %v once both creates are answered", a.Name, a.V)
		}
	}
}

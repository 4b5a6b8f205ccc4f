package fkclient

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"faaskeeper/internal/core"
	"faaskeeper/internal/sim"
	"faaskeeper/internal/znode"
)

// TestManyWatchersSingleEvent: dozens of sessions watch one node; a single
// update must notify every one of them through one watch-function fan-out.
func TestManyWatchersSingleEvent(t *testing.T) {
	run(t, 43, core.Config{}, func(k *sim.Kernel, d *core.Deployment) {
		writer := mustConnect(t, d, "writer")
		defer writer.Close()
		writer.Create("/hot", nil, 0)

		const n = 20
		notified := 0
		watchers := make([]*Client, n)
		for i := range watchers {
			w := mustConnect(t, d, fmt.Sprintf("w%d", i))
			defer w.Close()
			watchers[i] = w
			w.GetDataW("/hot", func(core.Notification) { notified++ })
		}
		before := d.Platform.Function(core.FnWatch).Invocations()
		writer.SetData("/hot", []byte("x"), -1)
		k.Sleep(10 * time.Second)
		if notified != n {
			t.Errorf("notified %d of %d watchers", notified, n)
		}
		// One watch-group: a single watch-function invocation fans out to
		// all sessions (Section 4.1, "Decoupling Watch Delivery").
		if got := d.Platform.Function(core.FnWatch).Invocations() - before; got != 1 {
			t.Errorf("watch function ran %d times, want 1", got)
		}
	})
}

// TestEpochCleanupAfterDelivery: once notifications are delivered, the
// region epoch counter must drain back to empty, so later reads never
// stall on stale watch ids.
func TestEpochCleanupAfterDelivery(t *testing.T) {
	run(t, 44, core.Config{}, func(k *sim.Kernel, d *core.Deployment) {
		writer := mustConnect(t, d, "writer")
		watcher := mustConnect(t, d, "watcher")
		defer writer.Close()
		defer watcher.Close()
		writer.Create("/e", nil, 0)
		watcher.GetDataW("/e", func(core.Notification) {})
		writer.SetData("/e", []byte("x"), -1)
		k.Sleep(10 * time.Second)
		if epoch := d.Epoch(watcher.ctx, d.Cfg.Profile.Home); len(epoch) != 0 {
			t.Errorf("epoch not drained: %v", epoch)
		}
		// A subsequent read must be instantaneous (no stall).
		t0 := k.Now()
		if _, _, err := watcher.GetData("/e"); err != nil {
			t.Errorf("read: %v", err)
		}
		if k.Now()-t0 > 100*time.Millisecond {
			t.Errorf("read stalled %v after epoch drain", k.Now()-t0)
		}
	})
}

// TestWatchAcrossSessionCloseIsDropped: a session that closes before its
// watch fires simply never hears about it; the system must not wedge.
func TestWatchAcrossSessionCloseIsDropped(t *testing.T) {
	run(t, 46, core.Config{}, func(k *sim.Kernel, d *core.Deployment) {
		writer := mustConnect(t, d, "writer")
		defer writer.Close()
		ghost := mustConnect(t, d, "ghost")
		writer.Create("/g", nil, 0)
		fired := false
		ghost.GetDataW("/g", func(core.Notification) { fired = true })
		ghost.Close()
		if _, err := writer.SetData("/g", []byte("x"), -1); err != nil {
			t.Errorf("set after watcher close: %v", err)
		}
		k.Sleep(5 * time.Second)
		if fired {
			t.Error("closed session received a notification")
		}
		// The system keeps working for everyone else.
		if _, err := writer.SetData("/g", []byte("y"), -1); err != nil {
			t.Errorf("follow-up write: %v", err)
		}
	})
}

// lostWatchOffsets sweeps the start of a GetDataW("/a/x") in 1-vms steps over
// 60…200 vms after a concurrent SetData("/a/x") was submitted — across the
// write's whole passage through follower, leader, watch claim and flush — and
// returns every offset at which the reader was handed the old value and never
// told of the new one: the watch it armed on version 0 did not fire on the
// first change after version 0.
func lostWatchOffsets(t *testing.T, cfg core.Config) (lost []int) {
	t.Helper()
	for off := 60; off <= 200; off++ {
		run(t, 77, cfg, func(k *sim.Kernel, d *core.Deployment) {
			writer := mustConnect(t, d, "writer")
			watcher := mustConnect(t, d, "watcher")
			defer writer.Close()
			defer watcher.Close()
			writer.Create("/a", nil, 0)
			writer.Create("/a/x", []byte("v0"), 0)
			k.Sleep(2 * time.Second)

			k.Go("set", func() {
				if _, err := writer.SetData("/a/x", []byte("v1"), -1); err != nil {
					t.Errorf("offset %d: set: %v", off, err)
				}
			})
			k.Sleep(time.Duration(off) * time.Millisecond)
			notified := false
			data, _, err := watcher.GetDataW("/a/x", func(core.Notification) { notified = true })
			if err != nil {
				t.Errorf("offset %d: read: %v", off, err)
			}
			k.Sleep(5 * time.Second)
			if string(data) == "v0" && !notified {
				lost = append(lost, off)
			}
		})
	}
	return lost
}

// TestWatchRegisteredAcrossTheCommitIsNotLost: watcher A's data watch on
// /a/x is armed when SetData(v1) commits, moving the group into v1's fire
// record. Watcher B's GetDataW is swept across the write in 1-vms steps: a
// registration that lands before the commit is moved with A's and fires
// with v1, and one that lands after it stays live, so B — whatever version
// it read — hears of the first change after it. (While the claim read the
// live group and then cleared it, a clear that removed the whole group lost
// offsets 89…93 vms at seed 77: B read v1 and never heard of v2.)
func TestWatchRegisteredAcrossTheCommitIsNotLost(t *testing.T) {
	var lost []int
	for off := 60; off <= 200; off++ {
		run(t, 77, core.Config{}, func(k *sim.Kernel, d *core.Deployment) {
			writer := mustConnect(t, d, "writer")
			a := mustConnect(t, d, "a")
			b := mustConnect(t, d, "b")
			defer writer.Close()
			defer a.Close()
			defer b.Close()
			writer.Create("/a", nil, 0)
			writer.Create("/a/x", []byte("v0"), 0)
			if _, _, err := a.GetDataW("/a/x", func(core.Notification) {}); err != nil {
				t.Errorf("offset %d: arm A: %v", off, err)
			}
			k.Sleep(2 * time.Second)

			k.Go("set", func() {
				if _, err := writer.SetData("/a/x", []byte("v1"), -1); err != nil {
					t.Errorf("offset %d: set v1: %v", off, err)
				}
			})
			k.Sleep(time.Duration(off) * time.Millisecond)
			notified := false
			data, _, err := b.GetDataW("/a/x", func(core.Notification) { notified = true })
			if err != nil {
				t.Errorf("offset %d: read: %v", off, err)
			}
			k.Sleep(3 * time.Second)
			if _, err := writer.SetData("/a/x", []byte("v2"), -1); err != nil {
				t.Errorf("offset %d: set v2: %v", off, err)
			}
			k.Sleep(5 * time.Second)
			if string(data) != "v2" && !notified {
				lost = append(lost, off)
			}
		})
	}
	if len(lost) > 0 {
		t.Errorf("watcher B read an older value and was never notified at offsets %v vms", lost)
	}
}

// TestStaleFireLeavesTheWatchArmed: a watch id is a hash of (path, type),
// so a notification of the id can belong to a fire the registration
// missed — a previous registration's, delivered again by a cold replay of
// its batch. One at or below the registration's frontier runs no callback
// and leaves the watch armed, and the next change fires it. (While any
// notification of the id completed the entry, the replayed one ran the
// callback with the old txid, and the next change went unheard.)
func TestStaleFireLeavesTheWatchArmed(t *testing.T) {
	run(t, 45, core.Config{}, func(k *sim.Kernel, d *core.Deployment) {
		w, v := mustConnect(t, d, "w"), mustConnect(t, d, "v")
		defer w.Close()
		defer v.Close()
		if _, err := w.Create("/n", nil, 0); err != nil {
			t.Fatalf("create: %v", err)
		}
		first, err := w.SetData("/n", []byte("1"), -1)
		if err != nil {
			t.Fatalf("set: %v", err)
		}
		var heard []int64
		if _, _, err := v.GetDataW("/n", func(n core.Notification) { heard = append(heard, n.Txid) }); err != nil {
			t.Fatalf("arm: %v", err)
		}
		v.onNotification(core.Notification{WatchID: core.WatchID("/n", core.WatchData), Event: core.EventDataChanged, Path: "/n", Txid: first.Mzxid})
		next, err := w.SetData("/n", []byte("2"), -1)
		if err != nil {
			t.Fatalf("set: %v", err)
		}
		k.Sleep(5 * time.Second)
		if !slices.Equal(heard, []int64{next.Mzxid}) {
			t.Errorf("the callback ran for txids %v, want only the next set's, %d", heard, next.Mzxid)
		}
	})
}

// TestWatchArmedDuringFlushIsNotLost guards the watch claim against the
// write's flush: the claim runs before the flush, on the read that confirmed
// the commit, so a watch registered while the write is in flight either is
// in that read — and fires — or landed after it, found the change committed
// and waits for a value at or past it. No offset loses a notification, on
// the paper's deployment, on several shards or with batched writes. (Until
// the read that arms a watch waited for its registration's frontier, the
// configurations that claimed before the flush lost offsets 96…115 vms at
// seed 77 with two shards.)
func TestWatchArmedDuringFlushIsNotLost(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  core.Config
	}{
		{"paper", core.Config{}},
		{"two shards", core.Config{WriteShards: 2}},
		{"batched writes", core.Config{BatchWrites: true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if lost := lostWatchOffsets(t, tc.cfg); len(lost) > 0 {
				t.Errorf("the watcher read v0 and was never notified of v1 at offsets %v vms", lost)
			}
		})
	}
}

// lostRootWatchOffsets sweeps a GetChildrenW("/") in 1-vms steps over
// 0…400 vms after session w started creating a top-level node on shard 1 of
// two, while shard 0's txids run far ahead of shard 1's (session a set one
// of its nodes 40 times first). It returns every offset at which the
// reader's list lacked w's node and its watch never fired.
func lostRootWatchOffsets(t *testing.T, cfg core.Config) (lost []int) {
	t.Helper()
	paths := shardedPaths(2, 3) // on shards 0, 1 and 0 of two
	a0, wp, a1 := paths[0], paths[1], paths[2]
	for off := 0; off <= 400; off++ {
		run(t, 1, cfg, func(k *sim.Kernel, d *core.Deployment) {
			a := mustConnect(t, d, "a")
			w := mustConnect(t, d, "w")
			r := mustConnect(t, d, "r")
			defer a.Close()
			defer w.Close()
			defer r.Close()
			if _, err := a.Create(a0, nil, 0); err != nil {
				t.Errorf("offset %d: create %s: %v", off, a0, err)
			}
			for i := 0; i < 40; i++ {
				if _, err := a.SetData(a0, []byte{byte(i)}, -1); err != nil {
					t.Errorf("offset %d: set %s: %v", off, a0, err)
				}
			}
			if _, err := a.Create(a1, nil, 0); err != nil {
				t.Errorf("offset %d: create %s: %v", off, a1, err)
			}
			k.Go("create", func() {
				if _, err := w.Create(wp, nil, 0); err != nil {
					t.Errorf("offset %d: create %s: %v", off, wp, err)
				}
			})
			k.Sleep(time.Duration(off) * time.Millisecond)
			notified := false
			children, err := r.GetChildrenW("/", func(core.Notification) { notified = true })
			if err != nil {
				t.Errorf("offset %d: read: %v", off, err)
			}
			k.Sleep(10 * time.Second)
			if !slices.Contains(children, znode.Base(wp)) && !notified {
				lost = append(lost, off)
			}
		})
	}
	return lost
}

// TestRootChildWatchAcrossShardsIsNotLost: a child watch on the root, which
// every shard's top-level creates change, fires for the first change after
// its read on any number of shards. Shard 1's create commits at a txid far
// below shard 0's; the registration, the commit and the flush interleave at
// every offset. Until the root kept one child stamp per shard (its record
// and its object, core.Frontier.Pzxids), the arming read compared shard 1's
// txid with shard 0's, returned a list without w's node, and the watch
// never fired: offsets 88…135 vms at seed 1 on two shards.
func TestRootChildWatchAcrossShardsIsNotLost(t *testing.T) {
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			if lost := lostRootWatchOffsets(t, core.Config{WriteShards: shards}); len(lost) > 0 {
				t.Errorf("the reader's list lacked the new node and its watch never fired at %d offsets %v vms", len(lost), lost)
			}
		})
	}
}

// TestRootDataWriteListsOnlyDistributedChildren: the user store is a prefix
// of the committed order, so a top-level node a reader finds listed under
// the root is readable, and one it finds unlisted after its delete started
// is gone. Session s writes the root's data while another session creates
// (or deletes) a node on shard 1, the write swept in 1-vms steps over
// 0…200 vms across it; then session r lists the root and reads the node.
// Until a data write of the root built on its region's object
// (core.sharedObject), the flush rebuilt the root from its system record,
// whose child list holds shard 1's committed but undistributed change: at
// seed 1 on two shards a reader listed the new node and got "no node" for
// it at 68 of 201 offsets.
func TestRootDataWriteListsOnlyDistributedChildren(t *testing.T) {
	for _, shards := range []int{1, 2} {
		for _, del := range []bool{false, true} {
			t.Run(fmt.Sprintf("shards=%d/delete=%v", shards, del), func(t *testing.T) {
				if bad := rootListingSweep(t, shards, del); len(bad) > 0 {
					t.Errorf("the root's list disagreed with the node's read at %d offsets %v vms", len(bad), bad)
				}
			})
		}
	}
}

// rootListingSweep runs TestRootDataWriteListsOnlyDistributedChildren's
// sweep and returns every offset at which r listed the node but could not
// read it (a create) or did not list it but could read it (a delete).
func rootListingSweep(t *testing.T, shards int, del bool) (bad []int) {
	t.Helper()
	wp := shardedPaths(2, 2)[1] // on shard 1 of two
	for off := 0; off <= 200; off++ {
		run(t, 1, core.Config{WriteShards: shards}, func(k *sim.Kernel, d *core.Deployment) {
			w := mustConnect(t, d, "w")
			s := mustConnect(t, d, "s")
			r := mustConnect(t, d, "r")
			defer w.Close()
			defer s.Close()
			defer r.Close()
			if del {
				if _, err := w.Create(wp, nil, 0); err != nil {
					t.Errorf("offset %d: create %s: %v", off, wp, err)
				}
			}
			k.Go("change", func() {
				var err error
				if del {
					err = w.Delete(wp, -1)
				} else {
					_, err = w.Create(wp, nil, 0)
				}
				if err != nil {
					t.Errorf("offset %d: change %s: %v", off, wp, err)
				}
			})
			k.Sleep(time.Duration(off) * time.Millisecond)
			if _, err := s.SetData(znode.Root, []byte{byte(off)}, -1); err != nil {
				t.Errorf("offset %d: set /: %v", off, err)
			}
			children, err := r.GetChildren(znode.Root)
			if err != nil {
				t.Errorf("offset %d: children of /: %v", off, err)
			}
			_, _, err = r.GetData(wp)
			listed := slices.Contains(children, znode.Base(wp))
			switch {
			case err != nil && !errors.Is(err, core.ErrNoNode):
				t.Errorf("offset %d: read %s: %v", off, wp, err)
			case !del && listed && err != nil, del && !listed && err == nil:
				bad = append(bad, off)
			}
			k.Sleep(5 * time.Second)
		})
	}
	return bad
}

// TestWatchedReadReachesFrontier: a GetDataW whose registration lands after
// the read that confirmed SetData(v1)'s commit — so v1's claim misses it —
// but before v1's put lands must not return v0: its watch would be armed on a
// value the claim skipped and fire only on v2. The read waits for the
// registration's frontier (core.Frontier), returns v1 and fires on v2. The
// sweep starts the GetDataW in 1-vms steps across the write: every offset
// fires on v1 or reads v1, and some offset registered in that window — v1's
// claim missed it and its read went to the store more than once.
func TestWatchedReadReachesFrontier(t *testing.T) {
	waited := 0
	for off := 60; off <= 200; off++ {
		run(t, 77, core.Config{}, func(k *sim.Kernel, d *core.Deployment) {
			writer := mustConnect(t, d, "writer")
			watcher := mustConnect(t, d, "watcher")
			defer writer.Close()
			defer watcher.Close()
			writer.Create("/a", nil, 0)
			writer.Create("/a/x", []byte("v0"), 0)
			k.Sleep(2 * time.Second)

			var v1 znode.Stat
			k.Go("set", func() {
				v1, _ = writer.SetData("/a/x", []byte("v1"), -1)
			})
			k.Sleep(time.Duration(off) * time.Millisecond)
			var fired []int64
			reads := d.Env.Meter.Count("obj.read")
			data, _, err := watcher.GetDataW("/a/x", func(n core.Notification) { fired = append(fired, n.Txid) })
			reads = d.Env.Meter.Count("obj.read") - reads
			if err != nil {
				t.Errorf("offset %d: read: %v", off, err)
			}
			k.Sleep(3 * time.Second)
			v2, _ := writer.SetData("/a/x", []byte("v2"), -1)
			k.Sleep(5 * time.Second)

			if len(fired) != 1 {
				t.Errorf("offset %d: notified of %v, want exactly one change", off, fired)
				return
			}
			switch {
			case fired[0] == v1.Mzxid:
			case fired[0] != v2.Mzxid:
				t.Errorf("offset %d: notified of txid %d, want v1's %d or v2's %d", off, fired[0], v1.Mzxid, v2.Mzxid)
			case string(data) != "v1":
				t.Errorf("offset %d: v1's claim missed the watch, yet the read returned %q and the watch fired on v2", off, data)
			case reads > 1:
				waited++ // v1 was not readable yet when the registration landed
			}
		})
	}
	if waited == 0 {
		t.Error("no offset registered between v1's confirming read and its put: the window is not exercised")
	}
}

// TestExistsWatchOnTombstoneSurvivesCollection: an exists watch armed on a
// deleted node lives on the node's tombstone, which the delete's pop would
// collect. The collection must leave a watched tombstone alone, so creating
// the node again fires NodeCreated. The delete's pop is carried to the next
// leader invocation — here a write elsewhere — so the registration lands on
// the tombstone before its collection is tried.
func TestExistsWatchOnTombstoneSurvivesCollection(t *testing.T) {
	run(t, 47, core.Config{}, func(k *sim.Kernel, d *core.Deployment) {
		writer := mustConnect(t, d, "writer")
		watcher := mustConnect(t, d, "watcher")
		defer writer.Close()
		defer watcher.Close()
		writer.Create("/x", nil, 0)
		writer.Create("/y", nil, 0)
		if err := writer.Delete("/x", -1); err != nil {
			t.Fatalf("delete: %v", err)
		}
		var events []core.EventType
		st, err := watcher.ExistsW("/x", func(n core.Notification) { events = append(events, n.Event) })
		if err != nil || st != nil {
			t.Fatalf("ExistsW on the deleted node: %v, %v; want no node", st, err)
		}
		if _, err := writer.SetData("/y", []byte("1"), -1); err != nil { // runs the carried pop
			t.Fatalf("set: %v", err)
		}
		k.Sleep(time.Second)
		if _, err := writer.Create("/x", nil, 0); err != nil {
			t.Fatalf("re-create: %v", err)
		}
		k.Sleep(5 * time.Second)
		if len(events) != 1 || events[0] != core.EventCreated {
			t.Errorf("events %v, want one NodeCreated", events)
		}
	})
}

// procDelay is a sim.FaultHook that holds the storage operations of every
// process whose name starts with a held prefix open for that prefix's
// extra, and counts the operations it held.
type procDelay struct {
	k     *sim.Kernel
	holds []procHold
	held  int
}

type procHold struct {
	prefix string
	extra  sim.Time
}

func (*procDelay) Crash(string, string, int64) bool { return false }
func (*procDelay) Redeliver(string) bool            { return false }
func (*procDelay) DeliveryDelay(string) sim.Time    { return 0 }
func (h *procDelay) OpDelay() sim.Time {
	name := h.k.Current().Name()
	for _, hd := range h.holds {
		if strings.HasPrefix(name, hd.prefix) {
			h.held++
			return hd.extra
		}
	}
	return 0
}

// TestNextChunkCommitFindsClaimCleared: create /p/a fires a child watch on
// /p, and create /p/b follows it in the same leader invocation, in a chunk
// of its own (no batching). /p/a's commit moved /p's group into its own
// fire record, so /p/b's commit moved nothing, and /p/b's check, which runs
// after /p/a's chunk answered and its claim round — held open here — has
// landed, fires nothing: the watch function runs once. A claim that hands
// a message the invocation's whole list of fired groups (queryWatches
// returning p.fired[0:], not the message's own share) launches /p/a's
// delivery again with /p/b's answer.
func TestNextChunkCommitFindsClaimCleared(t *testing.T) {
	run(t, 5, core.Config{}, func(k *sim.Kernel, d *core.Deployment) {
		h := &procDelay{k: k}
		k.SetFaultHook(h)
		w, v := mustConnect(t, d, "w"), mustConnect(t, d, "v")
		defer w.Close()
		defer v.Close()
		w.Create("/p", nil, 0)
		w.Create("/q", nil, 0)
		if _, err := v.GetChildrenW("/p", func(core.Notification) {}); err != nil {
			t.Errorf("arm: %v", err)
			return
		}
		k.Sleep(2 * time.Second)
		leader, watch := d.Platform.Function(core.FnLeader), d.Platform.Function(core.FnWatch)
		invs, before := leader.Invocations(), watch.Invocations()

		// A first write holds the leader in its flush while the two creates
		// queue up behind it, so they reach it in one invocation.
		h.holds = []procHold{{"leader-update-", 400 * time.Millisecond}}
		futs := []*sim.Future[core.Response]{w.submitWrite(core.OpSetData, "/q", []byte("1"), -1, 0)}
		for h.held == 0 {
			k.Sleep(time.Millisecond)
		}
		h.held = 0
		h.holds = []procHold{{"leader-claim", 30 * time.Millisecond}, {"leader-epoch-", 30 * time.Millisecond}}
		futs = append(futs,
			w.submitWrite(core.OpCreate, "/p/a", nil, -1, 0),
			w.submitWrite(core.OpCreate, "/p/b", nil, -1, 0))
		for i, f := range futs {
			if resp, ok := f.WaitTimeout(DefaultRequestTimeout); !ok || resp.Code != core.CodeOK {
				t.Errorf("write %d: ok=%v code=%s", i, ok, resp.Code)
				return
			}
		}
		k.Sleep(3 * time.Second)

		if n := leader.Invocations() - invs; n != 2 || h.held == 0 {
			t.Errorf("%d leader invocations for the three writes, %d claim writes held: want the creates in one, and the round held", n, h.held)
		}
		if n := watch.Invocations() - before; n != 1 {
			t.Errorf("the child watch on /p was delivered %d times, want once: the next chunk fired the first create's group again", n)
		}
	})
}

// TestNotificationsKeepTxidOrder: a session watches /a and then /b, and a
// writer sets /a and then /b, back to back; both nodes share a shard. Once
// both writes are answered and a first notification is in, the session
// reads /a. Over 200 seeds the callbacks run in txid order, /a's first, and
// the read returns /a's new value no sooner than /a's callback runs. The
// deliveries overlap when the watch function starts cold, and a later one
// of a shard waits out the earlier ones' epoch entries (core watchHandler):
// without that wait, /b's notification can arrive first, and its txid, the
// session's newest of the shard, lets a read of /a's new value past the
// epoch gate.
func TestNotificationsKeepTxidOrder(t *testing.T) {
	overlapped := 0
	for seed := int64(1); seed <= 200; seed++ {
		run(t, seed, core.Config{}, func(k *sim.Kernel, d *core.Deployment) {
			w, v := mustConnect(t, d, "w"), mustConnect(t, d, "v")
			defer w.Close()
			defer v.Close()
			for _, p := range []string{"/a", "/b"} {
				if _, err := w.Create(p, []byte("0"), 0); err != nil {
					t.Fatalf("seed %d: create %s: %v", seed, p, err)
				}
			}
			var fired []core.Notification
			var aRan sim.Time // the instant /a's callback ran; 0 before
			for _, p := range []string{"/a", "/b"} {
				if _, _, err := v.GetDataW(p, func(n core.Notification) {
					fired = append(fired, n)
					if n.Path == "/a" {
						aRan = k.Now()
					}
				}); err != nil {
					t.Fatalf("seed %d: watch %s: %v", seed, p, err)
				}
			}
			for _, p := range []string{"/a", "/b"} {
				if _, err := w.SetData(p, []byte("1"), -1); err != nil {
					t.Fatalf("seed %d: set %s: %v", seed, p, err)
				}
			}
			if len(fired) < 2 {
				overlapped++
			}
			// The first notification in raises the session's newest txid
			// of the shard; a read of /a then must still wait for /a's.
			for len(fired) == 0 {
				k.Sleep(time.Millisecond)
			}
			data, _, err := v.GetData("/a")
			if err != nil || string(data) != "1" {
				t.Fatalf("seed %d: get /a after both writes were answered: %q, %v", seed, data, err)
			}
			read := k.Now()
			k.Sleep(10 * time.Second)
			if aRan == 0 || read < aRan {
				t.Errorf("seed %d: read /a's new value at %v, /a's callback ran at %v", seed, read, aRan)
			}
			if len(fired) != 2 || fired[0].Path != "/a" || fired[0].Txid >= fired[1].Txid {
				t.Errorf("seed %d: notifications %+v, want /a's then /b's, in txid order", seed, fired)
			}
		})
	}
	if overlapped == 0 {
		t.Error("no seed had a delivery in flight once both writes were answered: the test saw no overlap")
	}
}

// TestWatchCycleAllocations pins the host cost of one watched write's whole
// cycle through the public client on the paper preset: a SetData to a node
// that four sessions watch, the watch function's fan-out to them, each
// session's notification and callback, and each callback's re-arm
// (GetDataW from inside the callback), up to the moment the leader has
// retired the delivery. The callbacks are bound once, so the count is the
// library's alone; bench's watch_notify workload adds its own bookkeeping
// (README, "Wire codec & allocation model").
func TestWatchCycleAllocations(t *testing.T) {
	if sim.PoolDropsPuts() {
		t.Skip("sync.Pool drops what it is handed (the race detector does this to a quarter of all puts): the write path's pooled scratch reallocates at random and no count is exact")
	}
	k, cycle := watchCycle(t)
	got := sim.AllocsPerRun(k, 300, cycle)
	k.Shutdown()
	if got != watchCycleAllocs {
		t.Fatalf("one watched write to %d sessions: %v allocations, want %d", watchCycleSessions, got, watchCycleAllocs)
	}
}

// watchCycle is the rig of the watch-cycle pins: a node watchCycleSessions
// sessions watch, with callbacks that re-arm, cycled until the sandboxes are
// warm and the buffers grown, and one cycle to price.
func watchCycle(t *testing.T) (*sim.Kernel, func()) {
	k := sim.NewKernel(1)
	d := core.NewDeployment(k, core.Config{})
	data := []byte(strings.Repeat("x", 128))
	rearmed := sim.NewQueue[struct{}](k)
	var w *Client
	cycle := func() {
		if _, err := w.SetData("/n", data, -1); err != nil {
			t.Errorf("set_data: %v", err)
		}
		for range watchCycleSessions {
			rearmed.Pop()
		}
		k.Sleep(time.Second) // the acknowledgements, and the leader retiring the delivery
	}
	k.Go("setup", func() {
		w = mustConnect(t, d, "w")
		if _, err := w.Create("/n", data, 0); err != nil {
			t.Errorf("create: %v", err)
		}
		for i := range watchCycleSessions {
			s := mustConnect(t, d, fmt.Sprintf("s%d", i))
			var cb WatchCallback
			cb = func(core.Notification) {
				if _, _, err := s.GetDataW("/n", cb); err != nil {
					t.Errorf("re-arm: %v", err)
				}
				rearmed.Push(struct{}{})
			}
			if _, _, err := s.GetDataW("/n", cb); err != nil {
				t.Errorf("arm: %v", err)
			}
		}
		for range 20 {
			cycle()
		}
	})
	k.Run()
	return k, cycle
}

// TestWatchCycleKernelWork pins the kernel's work for the cycle
// TestWatchCycleAllocations prices, over watchCycleRuns cycles: exact for
// the seed, under the race detector too.
func TestWatchCycleKernelWork(t *testing.T) {
	k, cycle := watchCycle(t)
	got := sim.WorkPerRun(k, watchCycleRuns, cycle)
	k.Shutdown()
	if got != watchCycleWork {
		t.Fatalf("%d watched writes to %d sessions: kernel work %+v, want %+v", watchCycleRuns, watchCycleSessions, got, watchCycleWork)
	}
}

// watchCycleSessions is how many sessions TestWatchCycleAllocations' node
// has watching it: watch_notify's 16 watchers over 4 nodes.
const watchCycleSessions = 4

// watchCycleAllocs is TestWatchCycleAllocations' pinned count: the write
// (clientWriteAllocs, 5), and per session its registration's stored list
// (1), its watch entry (1) and the re-arming read of a version whose epoch
// stamp carries the watch (node, data, stamp: 3), and the delivery's own
// (3): the system store's copy of its epoch entry's name, and the payload
// the watch function keeps and its decoded session list. No system-store write copies an item: each
// builds into a retired version's array (kv.Table.build). Re-pin it only
// with a reason: bench's watch_notify allocs_per_op is this count plus the
// workload's own bookkeeping (about 5), over 5 ops a write. It was
// 77 until the watch function sent from one loop instead of a process per
// session and a wait group (5), the session link stopped boxing each
// notification and the answer (5), a watch entry held its future by value,
// queued its callback with the notification instead of a closure and kept
// a one-shard MRD snapshot inline (12), kv stopped leaking an action whole,
// so a registration's one-element list and the epoch removal's stay on the
// stack (5), the payload was encoded once at its size (4) and the fired
// group borrowed its sessions from the record (1), and an asynchronous
// invocation reused a reaped one (4). It was 41 until the system store
// built each commit into a retired version's array, so the write's lock,
// commit and pop (3), each registration (4), the claim's clear and epoch
// append and the epoch removal (3) copy no item, and the leader's epoch
// mirror, fired list and completion list kept their arrays in the shard's
// slot (3). The leader stopped waiting for deliveries with the count
// unchanged: the epoch append's new list went, and the copy of the entry's
// name came; the name itself is a view into the payload. It was 28 until
// the system store cut the names it copies from one block (kv.nameCopies):
// the epoch entry's name, and the commit's new fire record's, each unique
// to its write, cost no allocation of their own.
const watchCycleAllocs = 27

// watchCycleWork is TestWatchCycleKernelWork's pinned count over
// watchCycleRuns cycles: a watched write is about 52 dispatches — 40 or 41
// hand-offs, the rest self-continues, as same-instant events fall — and 3
// spawns (the flush's leg, the claim round's epoch write, the watch
// function's invocation). Re-pin it only with a reason. It was 5 407
// dispatches, 4 269 hand-offs, 1 138 self-continues and 400 spawns until the
// commit moved the groups it fires into fire records its pop removes: the
// claim round's clear and its process went (about 2 hand-offs and one spawn
// a write). It was 5 500
// dispatches, 4 362 hand-offs and 1 138 self-continues until a warm
// one-shard leader skipped the epoch item in its opening read: the read is
// still one GetViews, but the draws after the shorter read shift, and with
// them how a cycle's events fall, so 3 cycles in 100 now take 57 dispatches
// and one 54. It was 5 505, 4 366 and 1 139 until the leader stopped
// waiting for the delivery: the wake from the invocation's future went
// (about one hand-off a write), the watch function took over the epoch exit,
// and the opening read takes the epoch item again (every invocation fires,
// so the slot's word never holds).
const watchCycleRuns = 100

var watchCycleWork = sim.Work{Dispatches: 5204, HandOffs: 4073, SelfContinues: 1131, Spawns: 300}

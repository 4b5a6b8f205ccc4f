package fkclient

import (
	"flag"
	"fmt"
	"strings"
	"testing"
	"time"

	"faaskeeper/internal/core"
	"faaskeeper/internal/sim"
)

// TestWatchReRegistrationFromCallback: callbacks run on the client's event
// worker, so re-arming a watch (a synchronous system-store write) from
// inside a callback must not deadlock the session.
func TestWatchReRegistrationFromCallback(t *testing.T) {
	run(t, 41, core.Config{}, func(k *sim.Kernel, d *core.Deployment) {
		writer := mustConnect(t, d, "writer")
		watcher := mustConnect(t, d, "watcher")
		defer writer.Close()
		defer watcher.Close()
		writer.Create("/cfg", []byte("0"), 0)

		events := 0
		var arm func()
		arm = func() {
			_, _, err := watcher.GetDataW("/cfg", func(n core.Notification) {
				events++
				arm() // synchronous op from the callback
			})
			if err != nil {
				t.Errorf("re-arm: %v", err)
			}
		}
		arm()
		for i := 1; i <= 3; i++ {
			writer.SetData("/cfg", []byte{byte(i)}, -1)
			k.Sleep(3 * time.Second)
		}
		if events != 3 {
			t.Errorf("saw %d events, want 3 (re-registration broken)", events)
		}
	})
}

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
		epoch, err := d.Epoch(watcher.ctx, d.Cfg.Profile.Home)
		if err != nil {
			t.Errorf("epoch: %v", err)
		}
		if len(epoch) != 0 {
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

// TestDeleteFiresBothDataAndExistsWatches matches ZooKeeper semantics.
func TestDeleteFiresBothDataAndExistsWatches(t *testing.T) {
	run(t, 45, core.Config{}, func(k *sim.Kernel, d *core.Deployment) {
		writer := mustConnect(t, d, "writer")
		w1 := mustConnect(t, d, "w1")
		w2 := mustConnect(t, d, "w2")
		defer writer.Close()
		defer w1.Close()
		defer w2.Close()
		writer.Create("/victim", nil, 0)
		var got []core.EventType
		w1.GetDataW("/victim", func(n core.Notification) { got = append(got, n.Event) })
		w2.ExistsW("/victim", func(n core.Notification) { got = append(got, n.Event) })
		writer.Delete("/victim", -1)
		k.Sleep(5 * time.Second)
		if len(got) != 2 {
			t.Fatalf("events = %v", got)
		}
		for _, e := range got {
			if e != core.EventDeleted {
				t.Errorf("event = %v, want deleted", e)
			}
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
// write's whole passage through follower, leader, flush and watch query — and
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

// TestWatchRegisteredDuringClearIsNotWiped: watcher A's data watch on /a/x is
// armed when SetData(v1) reaches the leader, whose watch query reads the
// group and then clears it. Watcher B's GetDataW is swept across the write in
// 1-vms steps; a registration that lands between the query's read and its
// clear must survive the clear, so B — whatever version it read — hears of
// the first change after it. Until the clear removed exactly the sessions it
// had read, offsets 89…93 vms at seed 77 read v1 and never heard of v2.
func TestWatchRegisteredDuringClearIsNotWiped(t *testing.T) {
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

// TestWatchArmedDuringFlushIsNotLost guards the order of the leader's watch
// steps against the write's flush: a watch registered while the write is in
// flight either is found by the watch query that follows the flush — and
// fires — or belongs to a read that already returns the new value. On the
// paper's order (query after the flush; the delivery launched ahead of the
// epoch append) no offset loses a notification.
//
// Where the watch groups are claimed before the flush (several shards here;
// see openChunk's claimEarly) the sweep finds a lost watch: a session that
// registers after the claim and reads before the put lands holds v0 with an
// armed watch that only v2 will fire (offsets 96…115 vms at seed 77, 98
// aside; 128…145 before the leader carried its last pop to the next
// invocation and the seeded latency stream was dealt anew, 131…147 before
// the leader's opening read). ROADMAP 1(f) has the analysis; the subtest runs
// only when named:
//
//	go test ./internal/fkclient -run 'TestWatchArmedDuringFlushIsNotLost/two_shards' -count=1
func TestWatchArmedDuringFlushIsNotLost(t *testing.T) {
	if lost := lostWatchOffsets(t, core.Config{}); len(lost) > 0 {
		t.Errorf("the watcher read v0 and was never notified of v1 at offsets %v vms", lost)
	}
	t.Run("two shards", func(t *testing.T) {
		if !strings.Contains(flag.Lookup("test.run").Value.String(), "two_shards") {
			t.Skip("known lost watch with claim-before-flush (ROADMAP 1(f), found in PR 24, not fixed)")
		}
		if lost := lostWatchOffsets(t, core.Config{WriteShards: 2}); len(lost) > 0 {
			t.Errorf("the watcher read v0 and was never notified of v1 at offsets %v vms", lost)
		}
	})
}

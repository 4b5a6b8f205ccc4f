package fkclient

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"faaskeeper/internal/cloud"
	"faaskeeper/internal/core"
	"faaskeeper/internal/obs"
	"faaskeeper/internal/sim"
	"faaskeeper/internal/znode"
)

// crashAfterPush is the tests' sim.FaultHook: with probability p a
// follower dies right after it pushed to a leader queue, before its commit
// (the window Algorithm 2's TryCommit covers), for a single op and for a
// multi() alike. It draws from its own seeded source and fires at most
// twice per (session, seq), so a retry budget of three or more never
// drains.
type crashAfterPush struct {
	p       float64
	rng     *rand.Rand
	crashes map[string]int
}

func newCrashAfterPush(seed int64, p float64) *crashAfterPush {
	return &crashAfterPush{p: p, rng: rand.New(rand.NewSource(seed)), crashes: map[string]int{}}
}

func (h *crashAfterPush) Crash(stage, session string, seq int64) bool {
	switch stage {
	case obs.StageLeaderQ, obs.StageTxnPrep:
	default:
		return false
	}
	key := fmt.Sprintf("%s|%d", session, seq)
	if h.rng.Float64() >= h.p || h.crashes[key] >= 2 {
		return false
	}
	h.crashes[key]++
	return true
}

func (*crashAfterPush) Redeliver(string) bool         { return false }
func (*crashAfterPush) DeliveryDelay(string) sim.Time { return 0 }
func (*crashAfterPush) OpDelay() sim.Time             { return 0 }

// run spins up a deployment and executes fn inside a client process.
func run(t *testing.T, seed int64, cfg core.Config, fn func(k *sim.Kernel, d *core.Deployment)) {
	t.Helper()
	k := sim.NewKernel(seed)
	d := core.NewDeployment(k, cfg)
	k.Go("test-main", func() { fn(k, d) })
	k.Run()
	k.Shutdown()
}

func mustConnect(t *testing.T, d *core.Deployment, id string) *Client {
	t.Helper()
	c, err := Connect(d, id, d.Cfg.Profile.Home)
	if err != nil {
		t.Fatalf("connect %s: %v", id, err)
	}
	return c
}

func TestCreateGetSetDeleteRoundTrip(t *testing.T) {
	run(t, 1, core.Config{}, func(k *sim.Kernel, d *core.Deployment) {
		c := mustConnect(t, d, "s1")
		path, err := c.Create("/cfg", []byte("v1"), 0)
		if err != nil || path != "/cfg" {
			t.Errorf("create: %q %v", path, err)
			return
		}
		data, stat, err := c.GetData("/cfg")
		if err != nil || string(data) != "v1" {
			t.Errorf("get: %q %v", data, err)
		}
		if stat.Version != 0 || stat.Czxid == 0 || stat.Mzxid != stat.Czxid {
			t.Errorf("create stat: %+v", stat)
		}
		st2, err := c.SetData("/cfg", []byte("v2"), 0)
		if err != nil {
			t.Errorf("set: %v", err)
		}
		if st2.Version != 1 || st2.Mzxid <= stat.Mzxid {
			t.Errorf("set stat: %+v", st2)
		}
		data, _, _ = c.GetData("/cfg")
		if string(data) != "v2" {
			t.Errorf("after set: %q", data)
		}
		if err := c.Delete("/cfg", 1); err != nil {
			t.Errorf("delete: %v", err)
		}
		if _, _, err := c.GetData("/cfg"); !errors.Is(err, core.ErrNoNode) {
			t.Errorf("get deleted: %v", err)
		}
		if err := c.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
	})
}

func TestValidationErrors(t *testing.T) {
	run(t, 2, core.Config{}, func(k *sim.Kernel, d *core.Deployment) {
		c := mustConnect(t, d, "s1")
		defer c.Close()
		if _, err := c.Create("/a", nil, 0); err != nil {
			t.Errorf("create /a: %v", err)
		}
		if _, err := c.Create("/a", nil, 0); !errors.Is(err, core.ErrNodeExists) {
			t.Errorf("dup create: %v", err)
		}
		if _, err := c.Create("/missing/child", nil, 0); !errors.Is(err, core.ErrNoNode) {
			t.Errorf("orphan create: %v", err)
		}
		if _, err := c.SetData("/nope", nil, -1); !errors.Is(err, core.ErrNoNode) {
			t.Errorf("set missing: %v", err)
		}
		if _, err := c.SetData("/a", nil, 7); !errors.Is(err, core.ErrBadVersion) {
			t.Errorf("set bad version: %v", err)
		}
		if _, err := c.Create("/a/b", nil, 0); err != nil {
			t.Errorf("create /a/b: %v", err)
		}
		if err := c.Delete("/a", -1); !errors.Is(err, core.ErrNotEmpty) {
			t.Errorf("delete non-empty: %v", err)
		}
		if err := c.Delete("/a/b", 3); !errors.Is(err, core.ErrBadVersion) {
			t.Errorf("delete bad version: %v", err)
		}
		if err := c.Delete("/nope", -1); !errors.Is(err, core.ErrNoNode) {
			t.Errorf("delete missing: %v", err)
		}
		if _, err := c.Create("bad-path", nil, 0); !errors.Is(err, znode.ErrBadPath) {
			t.Errorf("bad path: %v", err)
		}
		big := make([]byte, 300*1024)
		if _, err := c.Create("/big", big, 0); !errors.Is(err, core.ErrTooLarge) {
			t.Errorf("oversized: %v", err)
		}
	})
}

func TestGetChildrenFromParentMetadata(t *testing.T) {
	run(t, 3, core.Config{}, func(k *sim.Kernel, d *core.Deployment) {
		c := mustConnect(t, d, "s1")
		defer c.Close()
		c.Create("/svc", nil, 0)
		c.Create("/svc/b", nil, 0)
		c.Create("/svc/a", nil, 0)
		c.Create("/svc/c", nil, 0)
		kids, err := c.GetChildren("/svc")
		if err != nil {
			t.Errorf("children: %v", err)
			return
		}
		if len(kids) != 3 || kids[0] != "a" || kids[1] != "b" || kids[2] != "c" {
			t.Errorf("children = %v", kids)
		}
		c.Delete("/svc/b", -1)
		kids, _ = c.GetChildren("/svc")
		if len(kids) != 2 || kids[0] != "a" || kids[1] != "c" {
			t.Errorf("after delete = %v", kids)
		}
		// Root children include /svc.
		rootKids, _ := c.GetChildren("/")
		found := false
		for _, kk := range rootKids {
			if kk == "svc" {
				found = true
			}
		}
		if !found {
			t.Errorf("root children = %v", rootKids)
		}
	})
}

func TestSequentialNodes(t *testing.T) {
	run(t, 4, core.Config{}, func(k *sim.Kernel, d *core.Deployment) {
		c := mustConnect(t, d, "s1")
		defer c.Close()
		c.Create("/locks", nil, 0)
		var names []string
		for i := 0; i < 3; i++ {
			p, err := c.Create("/locks/lock-", nil, znode.FlagSequential)
			if err != nil {
				t.Errorf("seq create: %v", err)
				return
			}
			names = append(names, p)
		}
		if names[0] >= names[1] || names[1] >= names[2] {
			t.Errorf("sequential names not increasing: %v", names)
		}
		for _, n := range names {
			if len(n) != len("/locks/lock-")+10 {
				t.Errorf("bad sequential name %q", n)
			}
		}
	})
}

func TestExistsAndStat(t *testing.T) {
	run(t, 5, core.Config{}, func(k *sim.Kernel, d *core.Deployment) {
		c := mustConnect(t, d, "s1")
		defer c.Close()
		st, err := c.Exists("/ghost")
		if err != nil || st != nil {
			t.Errorf("exists missing: %v %v", st, err)
		}
		c.Create("/real", []byte("abc"), 0)
		st, err = c.Exists("/real")
		if err != nil || st == nil {
			t.Errorf("exists: %v %v", st, err)
			return
		}
		if st.DataLength != 3 || st.Version != 0 {
			t.Errorf("stat: %+v", st)
		}
	})
}

func TestEphemeralRemovedOnClose(t *testing.T) {
	run(t, 6, core.Config{}, func(k *sim.Kernel, d *core.Deployment) {
		c1 := mustConnect(t, d, "s1")
		c2 := mustConnect(t, d, "s2")
		defer c2.Close()
		c1.Create("/members", nil, 0)
		if _, err := c1.Create("/members/w1", nil, znode.FlagEphemeral); err != nil {
			t.Errorf("eph create: %v", err)
		}
		// Ephemeral nodes cannot have children.
		if _, err := c1.Create("/members/w1/x", nil, 0); !errors.Is(err, core.ErrNoChildrenEph) {
			t.Errorf("child of ephemeral: %v", err)
		}
		if st, _ := c2.Exists("/members/w1"); st == nil || !st.Ephemeral {
			t.Errorf("ephemeral stat: %+v", st)
		}
		if err := c1.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
		// After the owner's session closes, the node is gone.
		st, err := c2.Exists("/members/w1")
		if err != nil || st != nil {
			t.Errorf("ephemeral after close: %v %v", st, err)
		}
		// The permanent parent remains.
		if st, _ := c2.Exists("/members"); st == nil {
			t.Error("parent disappeared")
		}
	})
}

func TestHeartbeatEvictsCrashedClient(t *testing.T) {
	k := sim.NewKernel(7)
	d := core.NewDeployment(k, core.Config{HeartbeatEvery: 30 * time.Second})
	var observed *znode.Stat
	var observedErr error
	k.Go("test-main", func() {
		c1 := mustConnect(t, d, "dying")
		c2 := mustConnect(t, d, "watcher")
		c1.Create("/jobs", nil, 0)
		c1.Create("/jobs/worker", nil, znode.FlagEphemeral)
		c1.Crash() // stops answering heartbeats without deregistering
		// Wait several heartbeat periods for eviction to run end to end.
		k.Sleep(3 * 60 * sim.Ms(1000))
		observed, observedErr = c2.Exists("/jobs/worker")
		c2.Close()
	})
	// The scheduled heartbeat generates events forever; bound the run.
	k.RunFor(10 * time.Minute)
	k.Shutdown()
	if observedErr != nil {
		t.Fatalf("exists: %v", observedErr)
	}
	if observed != nil {
		t.Fatal("ephemeral node survived its owner's crash")
	}
	if d.Platform.Function(core.FnHeartbeat).Invocations() == 0 {
		t.Fatal("heartbeat function never ran")
	}
}

func TestDataWatchFires(t *testing.T) {
	run(t, 8, core.Config{}, func(k *sim.Kernel, d *core.Deployment) {
		writer := mustConnect(t, d, "writer")
		watcher := mustConnect(t, d, "watcher")
		defer writer.Close()
		defer watcher.Close()
		writer.Create("/cfg", []byte("v1"), 0)
		var fired []core.Notification
		_, _, err := watcher.GetDataW("/cfg", func(n core.Notification) {
			fired = append(fired, n)
		})
		if err != nil {
			t.Errorf("getw: %v", err)
			return
		}
		writer.SetData("/cfg", []byte("v2"), -1)
		k.Sleep(5 * sim.Ms(1000))
		if len(fired) != 1 {
			t.Errorf("notifications = %v", fired)
			return
		}
		if fired[0].Event != core.EventDataChanged || fired[0].Path != "/cfg" {
			t.Errorf("event: %+v", fired[0])
		}
		// One-shot: a second write does not re-fire.
		writer.SetData("/cfg", []byte("v3"), -1)
		k.Sleep(5 * sim.Ms(1000))
		if len(fired) != 1 {
			t.Errorf("watch fired twice: %v", fired)
		}
	})
}

func TestExistsAndChildWatches(t *testing.T) {
	run(t, 9, core.Config{}, func(k *sim.Kernel, d *core.Deployment) {
		writer := mustConnect(t, d, "writer")
		watcher := mustConnect(t, d, "watcher")
		defer writer.Close()
		defer watcher.Close()
		writer.Create("/dir", nil, 0)
		var events []core.EventType
		watcher.ExistsW("/dir/new", func(n core.Notification) { events = append(events, n.Event) })
		watcher.GetChildrenW("/dir", func(n core.Notification) { events = append(events, n.Event) })
		writer.Create("/dir/new", nil, 0)
		k.Sleep(5 * sim.Ms(1000))
		if len(events) != 2 {
			t.Errorf("events = %v", events)
			return
		}
		seen := map[core.EventType]bool{}
		for _, e := range events {
			seen[e] = true
		}
		if !seen[core.EventCreated] || !seen[core.EventChildrenChanged] {
			t.Errorf("events = %v", events)
		}
		// Deletion fires the re-registered watches.
		events = nil
		watcher.GetDataW("/dir/new", func(n core.Notification) { events = append(events, n.Event) })
		writer.Delete("/dir/new", -1)
		k.Sleep(5 * sim.Ms(1000))
		if len(events) != 1 || events[0] != core.EventDeleted {
			t.Errorf("delete events = %v", events)
		}
	})
}

func TestPipelinedWritesKeepFIFOOrder(t *testing.T) {
	run(t, 10, core.Config{}, func(k *sim.Kernel, d *core.Deployment) {
		c := mustConnect(t, d, "s1")
		defer c.Close()
		c.Create("/seq", nil, 0)
		// Fire many writes without waiting; responses must arrive in
		// order, and the final value must be the last write (Z1, Z2).
		n := 20
		futs := make([]*sim.Future[core.Response], 0, n)
		for i := 0; i < n; i++ {
			futs = append(futs, c.submitWrite(core.OpSetData, "/seq",
				[]byte(fmt.Sprintf("v%02d", i)), -1, 0))
		}
		var lastMzxid int64
		for i, f := range futs {
			resp, ok := f.WaitTimeout(DefaultRequestTimeout)
			if !ok || resp.Code != core.CodeOK {
				t.Errorf("write %d: %+v ok=%v", i, resp, ok)
				return
			}
			if resp.Stat.Mzxid <= lastMzxid {
				t.Errorf("mzxid not increasing at %d: %d <= %d", i, resp.Stat.Mzxid, lastMzxid)
			}
			lastMzxid = resp.Stat.Mzxid
			if int32(i+1) != resp.Stat.Version {
				t.Errorf("version at %d = %d", i, resp.Stat.Version)
			}
		}
		data, stat, err := c.GetData("/seq")
		if err != nil || string(data) != fmt.Sprintf("v%02d", n-1) {
			t.Errorf("final read: %q %v", data, err)
		}
		if stat.Version != int32(n) {
			t.Errorf("final version: %d", stat.Version)
		}
	})
}

func TestTwoSessionsParallelWrites(t *testing.T) {
	run(t, 11, core.Config{}, func(k *sim.Kernel, d *core.Deployment) {
		c1 := mustConnect(t, d, "s1")
		c2 := mustConnect(t, d, "s2")
		defer c1.Close()
		defer c2.Close()
		c1.Create("/shared", nil, 0)
		done := sim.NewWaitGroup(k)
		write := func(c *Client, who string) {
			defer done.Done()
			for i := 0; i < 5; i++ {
				if _, err := c.SetData("/shared", []byte(who), -1); err != nil {
					t.Errorf("%s write %d: %v", who, i, err)
				}
			}
		}
		done.Add(2)
		k.Go("w1", func() { write(c1, "one") })
		k.Go("w2", func() { write(c2, "two") })
		done.Wait()
		_, stat, err := c1.GetData("/shared")
		if err != nil {
			t.Errorf("read: %v", err)
			return
		}
		if stat.Version != 10 {
			t.Errorf("version = %d, want 10 (no lost updates)", stat.Version)
		}
	})
}

func TestReadYourWritesAndMonotonicReads(t *testing.T) {
	run(t, 12, core.Config{}, func(k *sim.Kernel, d *core.Deployment) {
		c := mustConnect(t, d, "s1")
		defer c.Close()
		c.Create("/x", []byte("0"), 0)
		var last int64
		for i := 1; i <= 10; i++ {
			val := []byte(fmt.Sprintf("%d", i))
			if _, err := c.SetData("/x", val, -1); err != nil {
				t.Errorf("set %d: %v", i, err)
				return
			}
			data, stat, err := c.GetData("/x")
			if err != nil {
				t.Errorf("get %d: %v", i, err)
				return
			}
			if !bytes.Equal(data, val) {
				t.Errorf("read-your-write broken at %d: got %q", i, data)
			}
			if stat.Mzxid < last {
				t.Errorf("mzxid regressed: %d < %d", stat.Mzxid, last)
			}
			last = stat.Mzxid
		}
	})
}

func TestFollowerCrashRecoveredByLeaderTryCommit(t *testing.T) {
	run(t, 13, core.Config{Retries: 3}, func(k *sim.Kernel, d *core.Deployment) {
		crashes := newCrashAfterPush(13, 0.3)
		k.SetFaultHook(crashes)
		c := mustConnect(t, d, "s1")
		defer c.Close()
		c.Create("/r", nil, 0)
		okCount := 0
		for i := 0; i < 20; i++ {
			if _, err := c.SetData("/r", []byte{byte(i)}, -1); err == nil {
				okCount++
			}
		}
		if len(crashes.crashes) == 0 {
			t.Error("no follower crash was injected: the test exercised nothing")
		}
		if okCount != 20 {
			t.Errorf("only %d/20 writes survived follower crashes", okCount)
		}
		_, stat, err := c.GetData("/r")
		if err != nil {
			t.Errorf("read: %v", err)
			return
		}
		if stat.Version != 20 {
			t.Errorf("version = %d, want 20", stat.Version)
		}
	})
}

func TestWatchOrderingZ4ReadStallsForPendingNotification(t *testing.T) {
	// A client with a registered watch must not observe data committed
	// after the watch fired until the notification has been delivered.
	run(t, 14, core.Config{}, func(k *sim.Kernel, d *core.Deployment) {
		writer := mustConnect(t, d, "writer")
		watcher := mustConnect(t, d, "watcher")
		defer writer.Close()
		defer watcher.Close()
		writer.Create("/a", []byte("a0"), 0)
		writer.Create("/b", []byte("b0"), 0)

		var notifiedAt, readAt sim.Time
		watcher.GetDataW("/a", func(n core.Notification) { notifiedAt = k.Now() })

		// Writer updates /a (fires the watch) and then /b.
		writer.SetData("/a", []byte("a1"), -1)
		writer.SetData("/b", []byte("b1"), -1)

		// The watcher reads /b; if it sees b1, the read must not complete
		// before the notification for /a.
		data, _, err := watcher.GetData("/b")
		readAt = k.Now()
		if err != nil {
			t.Errorf("read /b: %v", err)
			return
		}
		k.Sleep(2 * sim.Ms(1000))
		if string(data) == "b1" && notifiedAt == 0 {
			t.Error("Z4 violated: saw new data before watch notification")
		}
		if string(data) == "b1" && readAt < notifiedAt {
			t.Errorf("Z4 violated: read at %v before notification at %v", readAt, notifiedAt)
		}
	})
}

func TestMultiRegionReplication(t *testing.T) {
	cfg := core.Config{ExtraRegions: []cloud.Region{cloud.RegionAWSRemote}}
	run(t, 15, cfg, func(k *sim.Kernel, d *core.Deployment) {
		local := mustConnect(t, d, "local")
		defer local.Close()
		remote, err := Connect(d, "remote", cloud.RegionAWSRemote)
		if err != nil {
			t.Errorf("remote connect: %v", err)
			return
		}
		defer remote.Close()
		if _, err := local.Create("/geo", []byte("hello"), 0); err != nil {
			t.Errorf("create: %v", err)
			return
		}
		// The remote client reads from its region-local replica.
		data, _, err := remote.GetData("/geo")
		if err != nil || string(data) != "hello" {
			t.Errorf("remote read: %q %v", data, err)
		}
		if remote.store.Region() != cloud.RegionAWSRemote {
			t.Errorf("remote client bound to %s", remote.store.Region())
		}
	})
}

func TestGCPDeploymentEndToEnd(t *testing.T) {
	cfg := core.Config{Profile: cloud.GCPProfile(), UserStore: core.StoreKV}
	run(t, 16, cfg, func(k *sim.Kernel, d *core.Deployment) {
		c := mustConnect(t, d, "s1")
		defer c.Close()
		if _, err := c.Create("/gcp", []byte("x"), 0); err != nil {
			t.Errorf("create: %v", err)
			return
		}
		var fired bool
		c.GetDataW("/gcp", func(core.Notification) { fired = true })
		if _, err := c.SetData("/gcp", []byte("y"), 0); err != nil {
			t.Errorf("set: %v", err)
		}
		k.Sleep(10 * sim.Ms(1000))
		data, _, err := c.GetData("/gcp")
		if err != nil || string(data) != "y" {
			t.Errorf("get: %q %v", data, err)
		}
		if !fired {
			t.Error("watch did not fire on GCP profile")
		}
	})
}

func TestHybridStorageEndToEnd(t *testing.T) {
	cfg := core.Config{UserStore: core.StoreHybrid}
	run(t, 17, cfg, func(k *sim.Kernel, d *core.Deployment) {
		c := mustConnect(t, d, "s1")
		defer c.Close()
		small := bytes.Repeat([]byte("s"), 512)
		large := bytes.Repeat([]byte("L"), 64*1024)
		c.Create("/small", small, 0)
		c.Create("/large", large, 0)
		ds, _, err := c.GetData("/small")
		if err != nil || !bytes.Equal(ds, small) {
			t.Errorf("small: %v", err)
		}
		dl, _, err := c.GetData("/large")
		if err != nil || !bytes.Equal(dl, large) {
			t.Errorf("large: %v (len %d)", err, len(dl))
		}
	})
}

func TestWriteCostDistribution(t *testing.T) {
	// Figure 9: storage operations dominate the cost of writing; both
	// functions, the queue, and the system store all charge something.
	run(t, 18, core.Config{}, func(k *sim.Kernel, d *core.Deployment) {
		c := mustConnect(t, d, "s1")
		defer c.Close()
		c.Create("/cost", nil, 0)
		d.ResetMetrics()
		for i := 0; i < 50; i++ {
			c.SetData("/cost", bytes.Repeat([]byte("x"), 1024), -1)
		}
		m := d.Env.Meter
		for _, cat := range []string{"syskv.write", "obj.write", "queue.msg",
			"faas.follower", "faas.leader"} {
			if m.Cost(cat) <= 0 {
				t.Errorf("no cost recorded for %s:\n%s", cat, m)
			}
		}
		storage := m.Cost("syskv.write") + m.Cost("syskv.read") + m.Cost("obj.write")
		total := m.Total()
		if frac := storage / total; frac < 0.3 || frac > 0.95 {
			t.Errorf("storage fraction = %.2f of total, want 0.4-0.8 (paper: 40-80%%)", frac)
		}
	})
}

func TestSessionClosedRejectsOps(t *testing.T) {
	run(t, 19, core.Config{}, func(k *sim.Kernel, d *core.Deployment) {
		c := mustConnect(t, d, "s1")
		c.Close()
		if _, err := c.Create("/x", nil, 0); !errors.Is(err, core.ErrSessionClosed) {
			t.Errorf("create after close: %v", err)
		}
		if _, _, err := c.GetData("/"); !errors.Is(err, core.ErrSessionClosed) {
			t.Errorf("read after close: %v", err)
		}
		if err := c.Close(); err != nil {
			t.Errorf("double close: %v", err)
		}
	})
}

// TestAnswersReleasedOnceInSubmissionOrder drives onResponse, the ordering
// step the receiver runs on each answer, directly: a
// session with four writes in flight (and no sender, so nothing else
// answers them) is handed their answers out of order, one of them twice,
// plus answers to seqs it never had or released already. Each write is
// released once, with its first answer, and only after every earlier one.
func TestAnswersReleasedOnceInSubmissionOrder(t *testing.T) {
	run(t, 1, core.Config{}, func(k *sim.Kernel, d *core.Deployment) {
		c := &Client{d: d, id: "s", submitQ: sim.NewQueue[*pendingOp](k)}
		var released []int64
		var futs []*sim.Future[core.Response]
		for i := 0; i < 4; i++ {
			f := c.submitWrite(core.OpSetData, "/x", nil, -1, 0)
			futs = append(futs, f)
			k.Go("await", func() { released = append(released, f.Wait().Txid) })
		}
		answer := func(seq, txid int64) {
			c.onResponse(core.Response{Session: "s", Seq: seq, Code: core.CodeOK, Txid: txid})
			k.Yield() // let the awaiting processes record what was released
		}
		steps := []struct {
			seq, txid int64
			want      []int64 // the txids released so far, in order
		}{
			{3, 30, nil},
			{1, 10, []int64{10}},
			{1, 11, []int64{10}}, // a duplicate of a released write
			{4, 40, []int64{10}},
			{3, 31, []int64{10}}, // a duplicate of a held one: the first stays
			{9, 90, []int64{10}}, // never submitted
			{2, 20, []int64{10, 20, 30, 40}},
			{2, 21, []int64{10, 20, 30, 40}},
			{0, 1, []int64{10, 20, 30, 40}},
		}
		for i, s := range steps {
			answer(s.seq, s.txid)
			if !slices.Equal(released, s.want) {
				t.Errorf("step %d (seq %d): released %v, want %v", i, s.seq, released, s.want)
			}
		}
		if n := c.outstanding.Len(); n != 0 {
			t.Errorf("%d writes still outstanding", n)
		}
		// The next write starts a new run of the FIFO.
		f := c.submitWrite(core.OpSetData, "/x", nil, -1, 0)
		answer(5, 50)
		if !f.Done() || f.Value().Txid != 50 {
			t.Errorf("the write after the drain was not released by its answer")
		}
	})
}

// TestClientWriteAllocations pins the host cost of one SetData through the
// public client on the paper preset: core.TestPaperWriteAllocations' write
// plus what its rig's session bypasses — the pending op with its future,
// the submit hand-off and the response's release. bench's paper_write
// workload adds only its own bookkeeping to this count (README, "Wire codec
// & allocation model").
func TestClientWriteAllocations(t *testing.T) {
	if sim.PoolDropsPuts() {
		t.Skip("sync.Pool drops what it is handed (the race detector does this to a quarter of all puts): the write path's pooled scratch reallocates at random and no count is exact")
	}
	k := sim.NewKernel(1)
	d := core.NewDeployment(k, core.Config{})
	data := bytes.Repeat([]byte{'x'}, 1024)
	var c *Client
	k.Go("setup", func() {
		c = mustConnect(t, d, "w")
		if _, err := c.Create("/n", data, 0); err != nil {
			t.Errorf("create: %v", err)
		}
		for i := 0; i < 20; i++ { // the sandboxes are warm, the buffers grown
			_, _ = c.SetData("/n", data, -1)
		}
	})
	k.Run()
	got := sim.AllocsPerRun(k, 500, func() {
		if _, err := c.SetData("/n", data, -1); err != nil {
			t.Errorf("set_data: %v", err)
		}
	})
	k.Shutdown()
	if got != clientWriteAllocs {
		t.Fatalf("one client write: %v allocations, want %d", got, clientWriteAllocs)
	}
}

// clientWriteAllocs is TestClientWriteAllocations' pinned count. Re-pin it
// only with a reason: it moves one for one with bench's paper_write
// allocs_per_op, as core's paperWriteAllocs does. It was 22 until the five
// allocations paperWriteAllocs names went and the pending op took its
// future by value (1); it was 16 until the seven paperWriteAllocs names
// since 17 went; it was 9 until the answer stopped being boxed (1); it was
// 8 until the system store built each commit into a retired version's
// array, so the lock, the commit and the pop copy no item (3).
const clientWriteAllocs = 5

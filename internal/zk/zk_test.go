package zk

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"time"

	"faaskeeper/internal/cloud"
	"faaskeeper/internal/sim"
	"faaskeeper/internal/znode"
)

// harness runs fn inside a sim process against a fresh ensemble. Ensembles
// run periodic expiry loops, so the run is time-bounded.
func harness(t *testing.T, seed int64, cfg Config, horizon time.Duration, fn func(k *sim.Kernel, e *Ensemble)) {
	t.Helper()
	k := sim.NewKernel(seed)
	env := cloud.NewEnv(k, cloud.AWSProfile())
	e := NewEnsemble(env, cfg)
	done := false
	k.Go("zk-test", func() { fn(k, e); done = true })
	k.RunFor(horizon)
	k.Shutdown()
	if !done {
		t.Fatal("test body did not finish within the simulation horizon")
	}
}

func TestBasicCreateGetSetDelete(t *testing.T) {
	harness(t, 1, Config{}, time.Hour, func(k *sim.Kernel, e *Ensemble) {
		c, err := Connect(e, 1) // a follower, so writes get forwarded
		if err != nil {
			t.Errorf("connect: %v", err)
			return
		}
		defer c.Close()
		if _, err := c.Create("/a", []byte("v1"), 0); err != nil {
			t.Errorf("create: %v", err)
		}
		data, stat, err := c.GetData("/a")
		if err != nil || string(data) != "v1" || stat.Version != 0 {
			t.Errorf("get: %q %+v %v", data, stat, err)
		}
		st, err := c.SetData("/a", []byte("v2"), 0)
		if err != nil || st.Version != 1 {
			t.Errorf("set: %+v %v", st, err)
		}
		if st.Mzxid <= stat.Mzxid {
			t.Errorf("mzxid did not advance: %d <= %d", st.Mzxid, stat.Mzxid)
		}
		data, _, _ = c.GetData("/a")
		if string(data) != "v2" {
			t.Errorf("after set: %q", data)
		}
		if err := c.Delete("/a", -1); err != nil {
			t.Errorf("delete: %v", err)
		}
		if _, _, err := c.GetData("/a"); !errors.Is(err, ErrNoNode) {
			t.Errorf("get deleted: %v", err)
		}
	})
}

func TestValidationErrors(t *testing.T) {
	harness(t, 2, Config{}, time.Hour, func(k *sim.Kernel, e *Ensemble) {
		c, _ := Connect(e, 0)
		defer c.Close()
		c.Create("/a", nil, 0)
		if _, err := c.Create("/a", nil, 0); !errors.Is(err, ErrNodeExists) {
			t.Errorf("dup: %v", err)
		}
		if _, err := c.Create("/x/y", nil, 0); !errors.Is(err, ErrNoNode) {
			t.Errorf("orphan: %v", err)
		}
		if _, err := c.SetData("/a", nil, 9); !errors.Is(err, ErrBadVersion) {
			t.Errorf("bad version: %v", err)
		}
		c.Create("/a/b", nil, 0)
		if err := c.Delete("/a", -1); !errors.Is(err, ErrNotEmpty) {
			t.Errorf("not empty: %v", err)
		}
		eph, _ := Connect(e, 0)
		defer eph.Close()
		eph.Create("/e", nil, znode.FlagEphemeral)
		if _, err := c.Create("/e/child", nil, 0); !errors.Is(err, ErrNoChildrenEph) {
			t.Errorf("child of ephemeral: %v", err)
		}
	})
}

func TestAllReplicasConverge(t *testing.T) {
	harness(t, 3, Config{Servers: 5}, time.Hour, func(k *sim.Kernel, e *Ensemble) {
		c, _ := Connect(e, 2)
		defer c.Close()
		for i := 0; i < 10; i++ {
			c.Create(fmt.Sprintf("/n%d", i), []byte{byte(i)}, 0)
		}
		k.Sleep(2 * time.Second) // let commits propagate everywhere
		for si := 0; si < e.Servers(); si++ {
			for i := 0; i < 10; i++ {
				n, ok := e.Server(si).replica.get(fmt.Sprintf("/n%d", i))
				if !ok || n.Data[0] != byte(i) {
					t.Errorf("server %d missing /n%d", si, i)
				}
			}
		}
	})
}

func TestSequentialAndEphemeral(t *testing.T) {
	harness(t, 4, Config{}, time.Hour, func(k *sim.Kernel, e *Ensemble) {
		c1, _ := Connect(e, 0)
		c2, _ := Connect(e, 1)
		defer c2.Close()
		c1.Create("/locks", nil, 0)
		p1, _ := c1.Create("/locks/l-", nil, znode.FlagSequential|znode.FlagEphemeral)
		p2, _ := c2.Create("/locks/l-", nil, znode.FlagSequential|znode.FlagEphemeral)
		if p1 >= p2 {
			t.Errorf("sequential order: %q %q", p1, p2)
		}
		kids, _ := c2.GetChildren("/locks")
		if len(kids) != 2 {
			t.Errorf("children: %v", kids)
		}
		c1.Close()
		k.Sleep(2 * time.Second)
		kids, _ = c2.GetChildren("/locks")
		if len(kids) != 1 {
			t.Errorf("after owner close: %v", kids)
		}
	})
}

func TestSessionExpiryRemovesEphemerals(t *testing.T) {
	cfg := Config{SessionTimeout: 3 * time.Second}
	harness(t, 5, cfg, 2*time.Hour, func(k *sim.Kernel, e *Ensemble) {
		dying, _ := Connect(e, 1)
		obs, _ := Connect(e, 2)
		defer obs.Close()
		dying.Create("/w", nil, znode.FlagEphemeral)
		// Reads on another server are sequentially consistent, not
		// linearizable: give the commit a moment to propagate.
		k.Sleep(time.Second)
		st, _ := obs.Exists("/w")
		if st == nil {
			t.Error("ephemeral missing before crash")
		}
		dying.Crash()
		k.Sleep(15 * time.Second)
		st, err := obs.Exists("/w")
		if err != nil || st != nil {
			t.Errorf("ephemeral after expiry: %+v %v", st, err)
		}
	})
}

func TestWatchesFireInOrder(t *testing.T) {
	harness(t, 6, Config{}, time.Hour, func(k *sim.Kernel, e *Ensemble) {
		w, _ := Connect(e, 1)
		writer, _ := Connect(e, 2)
		defer w.Close()
		defer writer.Close()
		writer.Create("/cfg", []byte("0"), 0)
		var events []WatchEvent
		w.GetDataW("/cfg", func(ev WatchEvent) { events = append(events, ev) })
		w.GetChildrenW("/", func(ev WatchEvent) { events = append(events, ev) })
		writer.SetData("/cfg", []byte("1"), -1)
		writer.Create("/other", nil, 0)
		k.Sleep(2 * time.Second)
		if len(events) != 2 {
			t.Errorf("events: %v", events)
			return
		}
		if events[0].Type != EventDataChanged || events[1].Type != EventChildrenChanged {
			t.Errorf("order: %v", events)
		}
		if events[0].Zxid >= events[1].Zxid {
			t.Errorf("zxid order: %v", events)
		}
		// One-shot: further writes do not re-fire.
		writer.SetData("/cfg", []byte("2"), -1)
		k.Sleep(2 * time.Second)
		if len(events) != 2 {
			t.Errorf("watch re-fired: %v", events)
		}
	})
}

func TestFollowerFailureToleratedByQuorum(t *testing.T) {
	harness(t, 7, Config{Servers: 3}, time.Hour, func(k *sim.Kernel, e *Ensemble) {
		c, _ := Connect(e, 0)
		defer c.Close()
		c.Create("/pre", nil, 0)
		e.KillServer(2) // one follower down: 2/3 still a quorum
		if _, err := c.Create("/post", nil, 0); err != nil {
			t.Errorf("write after follower failure: %v", err)
		}
		if st, _ := c.Exists("/post"); st == nil {
			t.Error("write lost")
		}
	})
}

func TestLeaderFailoverElectsNewLeader(t *testing.T) {
	harness(t, 8, Config{Servers: 3}, time.Hour, func(k *sim.Kernel, e *Ensemble) {
		c, _ := Connect(e, 1) // session on a follower that survives
		defer c.Close()
		c.Create("/before", nil, 0)
		oldLeader := e.Leader().id
		e.KillServer(oldLeader)
		nl := e.Leader()
		if nl == nil || nl.id == oldLeader {
			t.Error("no new leader elected")
			return
		}
		if _, err := c.Create("/after", nil, 0); err != nil {
			t.Errorf("write after failover: %v", err)
		}
		_, st, err := c.GetData("/after")
		if err != nil {
			t.Errorf("read after failover: %v", err)
			return
		}
		// New epoch dominates old zxids.
		_, stOld, _ := c.GetData("/before")
		if st.Czxid <= stOld.Czxid {
			t.Errorf("zxid did not advance across epochs: %d <= %d", st.Czxid, stOld.Czxid)
		}
	})
}

func TestPipelinedWritesFIFO(t *testing.T) {
	harness(t, 9, Config{}, time.Hour, func(k *sim.Kernel, e *Ensemble) {
		c, _ := Connect(e, 1)
		defer c.Close()
		c.Create("/p", nil, 0)
		// Issue reads and writes back-to-back; the final read must observe
		// the last write (reads wait for the session's pending writes).
		for i := 0; i < 5; i++ {
			c.SetData("/p", []byte{byte(i)}, -1)
			data, _, err := c.GetData("/p")
			if err != nil || data[0] != byte(i) {
				t.Errorf("read-your-write %d: %v %v", i, data, err)
			}
		}
	})
}

func TestReadLatencyFarBelowFaaSKeeper(t *testing.T) {
	// Figure 8: self-hosted ZooKeeper serves reads in about a millisecond.
	harness(t, 10, Config{}, time.Hour, func(k *sim.Kernel, e *Ensemble) {
		c, _ := Connect(e, 0)
		defer c.Close()
		c.Create("/r", bytes.Repeat([]byte("x"), 1024), 0)
		n := 100
		t0 := k.Now()
		for i := 0; i < n; i++ {
			c.GetData("/r")
		}
		avg := (k.Now() - t0) / sim.Time(n)
		if avg > 3*time.Millisecond {
			t.Errorf("zk read avg = %v, want ~1ms", avg)
		}
	})
}

func TestWriteCountTracksCommits(t *testing.T) {
	harness(t, 11, Config{}, time.Hour, func(k *sim.Kernel, e *Ensemble) {
		c, _ := Connect(e, 0)
		defer c.Close()
		before := e.WriteCount()
		c.Create("/w1", nil, 0)
		c.SetData("/w1", []byte("x"), -1)
		c.Delete("/w1", -1)
		if got := e.WriteCount() - before; got != 3 {
			t.Errorf("write count = %d, want 3", got)
		}
		if e.ReadCount() != 0 {
			c.GetData("/") // ensure reads tracked separately
		}
	})
}

func TestMultiAtomicCommitAndAbort(t *testing.T) {
	harness(t, 21, Config{}, time.Hour, func(k *sim.Kernel, e *Ensemble) {
		c, err := Connect(e, 1)
		if err != nil {
			t.Errorf("connect: %v", err)
			return
		}
		defer c.Close()
		if _, err := c.Create("/cfg", []byte("v0"), 0); err != nil {
			t.Errorf("create: %v", err)
			return
		}
		// Commit: check + two writes, all at one zxid.
		st, err := c.Multi(
			MultiOp{Op: OpCheck, Path: "/cfg", Version: 0},
			MultiOp{Op: OpCreate, Path: "/cfg/a", Data: []byte("one"), Version: -1},
			MultiOp{Op: OpSetData, Path: "/cfg", Data: []byte("v1"), Version: 0},
		)
		if err != nil {
			t.Errorf("multi: %v", err)
			return
		}
		data, gst, err := c.GetData("/cfg")
		if err != nil || string(data) != "v1" || gst.Version != 1 {
			t.Errorf("after multi: %q v%d (%v)", data, gst.Version, err)
		}
		ast, err := c.Exists("/cfg/a")
		if err != nil || ast == nil {
			t.Errorf("created sub-node: %v %v", ast, err)
		} else if ast.Czxid != gst.Mzxid || st.Mzxid != gst.Mzxid {
			t.Errorf("sub-ops did not share one zxid: create %d, set %d, reply %d",
				ast.Czxid, gst.Mzxid, st.Mzxid)
		}
		// Abort: a failing version guard rejects the whole batch.
		if _, err := c.Multi(
			MultiOp{Op: OpSetData, Path: "/cfg", Data: []byte("v2"), Version: 1},
			MultiOp{Op: OpCheck, Path: "/cfg/a", Version: 9},
		); !errors.Is(err, ErrBadVersion) {
			t.Errorf("aborting multi: %v, want ErrBadVersion", err)
		}
		if data, _, _ := c.GetData("/cfg"); string(data) != "v1" {
			t.Errorf("abort leaked a write: %q", data)
		}
	})
}

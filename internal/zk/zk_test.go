package zk

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"faaskeeper/internal/cloud"
	"faaskeeper/internal/core"
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

// TestSessionExpiryClosesInSeedOrder: two sessions on one server lapse at
// the same tick, and the order their close-session writes commit in — the
// zxids of their ephemerals' deletions, as an observer's watches report
// them — is the same on every run of one seed. The expiry loop used to
// submit the closes in map order.
func TestSessionExpiryClosesInSeedOrder(t *testing.T) {
	var want string
	for run := 0; run < 20; run++ {
		var got string
		harness(t, 9, Config{SessionTimeout: 3 * time.Second}, time.Hour, func(k *sim.Kernel, e *Ensemble) {
			obs, _ := Connect(e, 2)
			defer obs.Close()
			var dying []*Client
			zxid := map[string]int64{}
			for _, p := range []string{"/a", "/b", "/c", "/d"} {
				c, _ := Connect(e, 1)
				if _, err := c.Create(p, nil, znode.FlagEphemeral); err != nil {
					t.Fatalf("create %s: %v", p, err)
				}
				dying = append(dying, c)
			}
			k.Sleep(time.Second)
			for _, p := range []string{"/a", "/b", "/c", "/d"} {
				if _, err := obs.ExistsW(p, func(n core.Notification) { zxid[n.Path] = n.Txid }); err != nil {
					t.Fatalf("watch %s: %v", p, err)
				}
			}
			for _, c := range dying {
				c.Crash()
			}
			k.Sleep(15 * time.Second)
			got = fmt.Sprint(zxid)
		})
		if run == 0 {
			want = got
		} else if got != want {
			t.Fatalf("run %d closed the sessions at %s, run 0 at %s", run, got, want)
		}
	}
}

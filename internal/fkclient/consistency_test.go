package fkclient

// ZooKeeper's single system image and durability guarantees (Z3, Appendix
// A of the paper) on fixed histories. The randomized multi-client
// histories, under faults and across every deployment config, are
// internal/chaos's: its checker carries Z2 per session and shard, Z3's
// per-path mzxid order and Z4's watch order, and its audit the tree's
// integrity.

import (
	"fmt"
	"testing"

	"faaskeeper/internal/core"
	"faaskeeper/internal/sim"
)

// TestSingleSystemImageConvergence: after all writes settle, every client
// observes the same final state (Z3's "single system image").
func TestSingleSystemImageConvergence(t *testing.T) {
	k := sim.NewKernel(31)
	d := core.NewDeployment(k, core.Config{})
	finals := map[string]string{}
	k.Go("driver", func() {
		w, _ := Connect(d, "writer", d.Cfg.Profile.Home)
		w.Create("/conv", nil, 0)
		for i := 0; i < 10; i++ {
			w.SetData("/conv", []byte(fmt.Sprintf("v%d", i)), -1)
		}
		w.Close()
		for ci := 0; ci < 3; ci++ {
			id := fmt.Sprintf("reader%d", ci)
			c, _ := Connect(d, id, d.Cfg.Profile.Home)
			data, _, err := c.GetData("/conv")
			if err != nil {
				t.Errorf("%s: %v", id, err)
			}
			finals[id] = string(data)
			c.Close()
		}
	})
	k.Run()
	k.Shutdown()
	for id, v := range finals {
		if v != "v9" {
			t.Errorf("%s saw %q, want v9", id, v)
		}
	}
}

// TestAcceptedUpdatesNeverRollBack: a committed write stays visible even
// across injected follower crashes and retries (Z3 "accepted updates are
// never rolled back").
func TestAcceptedUpdatesNeverRollBack(t *testing.T) {
	k := sim.NewKernel(67)
	k.SetFaultHook(newCrashAfterPush(67, 0.3))
	d := core.NewDeployment(k, core.Config{Retries: 3})
	k.Go("driver", func() {
		c, _ := Connect(d, "s", d.Cfg.Profile.Home)
		defer c.Close()
		c.Create("/r", nil, 0)
		lastCommitted := int32(-1)
		for i := 0; i < 15; i++ {
			st, err := c.SetData("/r", []byte{byte(i)}, -1)
			if err != nil {
				continue
			}
			if st.Version <= lastCommitted {
				t.Errorf("version rolled back: %d after %d", st.Version, lastCommitted)
			}
			lastCommitted = st.Version
			_, rst, err := c.GetData("/r")
			if err != nil {
				t.Errorf("read: %v", err)
				continue
			}
			if rst.Version < lastCommitted {
				t.Errorf("read version %d below committed %d", rst.Version, lastCommitted)
			}
		}
	})
	k.Run()
	k.Shutdown()
}

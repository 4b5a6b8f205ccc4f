package faaskeeper

import (
	"errors"
	"reflect"
	"testing"
	"time"

	"faaskeeper/internal/core"
)

func TestPublicAPIQuickstartFlow(t *testing.T) {
	s := NewSimulation(1)
	d := s.DeployFaaSKeeper(DeploymentOptions{})
	var fired bool
	s.Go(func() {
		c, err := d.Connect("s1")
		if err != nil {
			t.Errorf("connect: %v", err)
			return
		}
		defer c.Close()
		if _, err := c.Create("/config", []byte("v1"), 0); err != nil {
			t.Errorf("create: %v", err)
			return
		}
		c.GetDataW("/config", func(n Notification) { fired = true })
		if _, err := c.SetData("/config", []byte("v2"), -1); err != nil {
			t.Errorf("set: %v", err)
		}
		data, stat, err := c.GetData("/config")
		if err != nil || string(data) != "v2" || stat.Version != 1 {
			t.Errorf("get: %q %+v %v", data, stat, err)
		}
		s.Sleep(5 * time.Second)
	})
	s.Run()
	s.Shutdown()
	if !fired {
		t.Error("watch callback did not fire")
	}
	if d.TotalCost() <= 0 {
		t.Error("no cost accumulated")
	}
	if len(d.CostBreakdown()) == 0 {
		t.Error("no cost categories")
	}
}

func TestPublicAPIZooKeeperBaseline(t *testing.T) {
	s := NewSimulation(2)
	z := s.DeployZooKeeper(3)
	s.Go(func() {
		c, err := z.Connect(0)
		if err != nil {
			t.Errorf("connect: %v", err)
			return
		}
		defer c.Close()
		if _, err := c.Create("/x", []byte("zk"), 0); err != nil {
			t.Errorf("create: %v", err)
		}
		data, _, err := c.GetData("/x")
		if err != nil || string(data) != "zk" {
			t.Errorf("get: %q %v", data, err)
		}
	})
	s.RunFor(time.Hour)
	s.Shutdown()
}

func TestPublicErrorsExported(t *testing.T) {
	s := NewSimulation(3)
	d := s.DeployFaaSKeeper(DeploymentOptions{UserStore: StoreHybrid})
	s.Go(func() {
		c, _ := d.Connect("s1")
		defer c.Close()
		if _, _, err := c.GetData("/missing"); !errors.Is(err, ErrNoNode) {
			t.Errorf("missing read: %v", err)
		}
		c.Create("/a", nil, 0)
		if _, err := c.Create("/a", nil, 0); !errors.Is(err, ErrNodeExists) {
			t.Errorf("dup create: %v", err)
		}
	})
	s.Run()
	s.Shutdown()
}

func TestPublicAPISequentialEphemeral(t *testing.T) {
	s := NewSimulation(4)
	d := s.DeployFaaSKeeper(DeploymentOptions{})
	s.Go(func() {
		c, _ := d.Connect("s1")
		defer c.Close()
		c.Create("/election", nil, 0)
		p1, err := c.Create("/election/cand-", nil, FlagEphemeral|FlagSequential)
		if err != nil {
			t.Errorf("seq-eph create: %v", err)
			return
		}
		p2, _ := c.Create("/election/cand-", nil, FlagEphemeral|FlagSequential)
		if p1 >= p2 {
			t.Errorf("sequence order: %q %q", p1, p2)
		}
	})
	s.Run()
	s.Shutdown()
}

// TestDeploymentOptionsIsCoreConfig: the public options are the pipeline's
// own config, not a hand-copied subset — so a switch the mirror never
// carried (WatchFanout) is reachable through the public surface.
func TestDeploymentOptionsIsCoreConfig(t *testing.T) {
	if got, want := reflect.TypeOf(DeploymentOptions{}), reflect.TypeOf(core.Config{}); got != want {
		t.Fatalf("DeploymentOptions is %v, want %v itself", got, want)
	}
	s := NewSimulation(5)
	d := s.DeployFaaSKeeper(DeploymentOptions{WatchFanout: true})
	var events []Notification
	s.Go(func() {
		c, err := d.Connect("s1")
		if err != nil {
			t.Errorf("connect: %v", err)
			return
		}
		defer c.Close()
		if _, err := c.Create("/cfg", []byte("v0"), 0); err != nil {
			t.Errorf("create: %v", err)
			return
		}
		if _, err := c.AddWatch("/cfg", WatchOptions{}, func(n Notification) { events = append(events, n) }); err != nil {
			t.Errorf("AddWatch on DeploymentOptions{WatchFanout: true}: %v", err)
			return
		}
		for _, v := range []string{"v1", "v2"} {
			if _, err := c.SetData("/cfg", []byte(v), -1); err != nil {
				t.Errorf("set %s: %v", v, err)
			}
		}
		s.Sleep(5 * time.Second)
	})
	s.Run()
	s.Shutdown()
	// A persistent watch fires on every change without re-arming.
	if len(events) != 2 || events[0].Path != "/cfg" || events[1].Txid <= events[0].Txid {
		t.Errorf("persistent watch delivered %+v, want both sets of /cfg in order", events)
	}
}

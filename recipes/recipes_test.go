package recipes

import (
	"fmt"
	"testing"
	"time"

	"faaskeeper"
)

func harness(t *testing.T, seed int64, horizon time.Duration, fn func(s *faaskeeper.Simulation, d *faaskeeper.Deployment)) {
	t.Helper()
	s := faaskeeper.NewSimulation(seed)
	d := s.DeployFaaSKeeper(faaskeeper.DeploymentOptions{
		UserStore:      faaskeeper.StoreHybrid,
		HeartbeatEvery: 30 * time.Second,
	})
	done := false
	s.Go(func() { fn(s, d); done = true })
	s.RunFor(horizon)
	s.Shutdown()
	if !done {
		t.Fatal("scenario did not finish within the horizon")
	}
}

func TestMutexDoubleLockAndUnheldUnlock(t *testing.T) {
	harness(t, 2, time.Hour, func(s *faaskeeper.Simulation, d *faaskeeper.Deployment) {
		c, _ := d.Connect("solo")
		defer c.Close()
		c.Create("/lock", nil, 0)
		m := NewMutex(s, c, "/lock")
		if err := m.Unlock(); err != ErrNotHeld {
			t.Errorf("unheld unlock: %v", err)
		}
		if err := m.Lock(); err != nil {
			t.Errorf("lock: %v", err)
		}
		if err := m.Lock(); err == nil {
			t.Error("double lock should fail")
		}
		if err := m.Unlock(); err != nil {
			t.Errorf("unlock: %v", err)
		}
	})
}

func TestElectionFailover(t *testing.T) {
	harness(t, 3, time.Hour, func(s *faaskeeper.Simulation, d *faaskeeper.Deployment) {
		setup, _ := d.Connect("setup")
		setup.Create("/election", nil, 0)
		var order []string
		clients := make([]*faaskeeper.Client, 3)
		elections := make([]*Election, 3)
		for i := 0; i < 3; i++ {
			id := fmt.Sprintf("cand%d", i)
			c, err := d.Connect(id)
			if err != nil {
				t.Errorf("connect: %v", err)
				return
			}
			clients[i] = c
			elections[i] = NewElection(s, c, "/election", func() { order = append(order, id) })
			if err := elections[i].Campaign(); err != nil {
				t.Errorf("%s campaign: %v", id, err)
			}
			s.Sleep(time.Second)
		}
		if len(order) != 1 || order[0] != "cand0" || !elections[0].Leading() {
			t.Errorf("initial leader: %v", order)
		}
		// Crash the leader: the heartbeat evicts its session and the next
		// candidate is promoted through its predecessor watch.
		clients[0].Crash()
		s.Sleep(3 * time.Minute)
		if len(order) != 2 || order[1] != "cand1" {
			t.Errorf("failover order: %v", order)
		}
		// Graceful resignation promotes the last candidate.
		if err := elections[1].Resign(); err != nil {
			t.Errorf("resign: %v", err)
		}
		s.Sleep(time.Minute)
		if len(order) != 3 || order[2] != "cand2" {
			t.Errorf("after resignation: %v", order)
		}
		clients[1].Close()
		clients[2].Close()
		setup.Close()
	})
}

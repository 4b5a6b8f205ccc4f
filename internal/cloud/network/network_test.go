package network

import (
	"testing"

	"faaskeeper/internal/cloud"
	"faaskeeper/internal/sim"
)

func newEnv(seed int64) (*sim.Kernel, *cloud.Env) {
	k := sim.NewKernel(seed)
	return k, cloud.NewEnv(k, cloud.AWSProfile())
}

func TestSendRecvRoundTrip(t *testing.T) {
	k, env := newEnv(1)
	c := NewConn[string](env, cloud.RegionAWSHome, cloud.RegionAWSHome)
	var got string
	var at sim.Time
	k.Go("receiver", func() {
		p, ok := c.B().Recv()
		if !ok {
			t.Error("closed")
			return
		}
		got = p.Payload
		at = k.Now()
	})
	k.Go("sender", func() {
		c.A().Send("hello", 5)
	})
	k.Run()
	if got != "hello" {
		t.Fatalf("got %q", got)
	}
	if at <= 0 {
		t.Fatal("delivery was instantaneous")
	}
}

func TestFIFODeliveryOrder(t *testing.T) {
	k, env := newEnv(2)
	c := NewLANConn[int](env)
	var got []int
	k.Go("receiver", func() {
		for i := 0; i < 50; i++ {
			p, ok := c.B().Recv()
			if !ok {
				return
			}
			got = append(got, p.Payload)
		}
	})
	k.Go("sender", func() {
		for i := 0; i < 50; i++ {
			// Mix of sizes so wire times differ; order must still hold.
			c.A().Send(i, (i%7)*1024)
		}
	})
	k.Run()
	if len(got) != 50 {
		t.Fatalf("received %d", len(got))
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("order broken: %v", got)
		}
	}
}

func TestSendDoesNotBlockSender(t *testing.T) {
	k, env := newEnv(3)
	c := NewConn[int](env, cloud.RegionAWSHome, cloud.RegionAWSHome)
	var sendDone sim.Time
	k.Go("sender", func() {
		for i := 0; i < 10; i++ {
			c.A().Send(i, 1024)
		}
		sendDone = k.Now()
	})
	k.Go("receiver", func() {
		for i := 0; i < 10; i++ {
			c.B().Recv()
		}
	})
	k.Run()
	if sendDone != 0 {
		t.Fatalf("sends blocked until %v", sendDone)
	}
}

func TestCrossRegionSlower(t *testing.T) {
	k, env := newEnv(6)
	same := NewConn[int](env, cloud.RegionAWSHome, cloud.RegionAWSHome)
	cross := NewConn[int](env, cloud.RegionAWSHome, cloud.RegionAWSRemote)
	var tSame, tCross sim.Time
	k.Go("same", func() {
		same.A().Send(1, 64)
		t0 := k.Now()
		same.B().Recv()
		tSame = k.Now() - t0
	})
	k.Go("cross", func() {
		cross.A().Send(1, 64)
		t0 := k.Now()
		cross.B().Recv()
		tCross = k.Now() - t0
	})
	k.Run()
	if tCross < 10*tSame {
		t.Fatalf("cross-region %v not much slower than same-region %v", tCross, tSame)
	}
}

func TestCloseDropsFutureSends(t *testing.T) {
	k, env := newEnv(7)
	c := NewLANConn[string](env)
	var recvOK bool
	k.Go("receiver", func() {
		c.B().Close()
		_, recvOK = c.B().Recv()
	})
	k.Go("sender", func() {
		k.Sleep(sim.Ms(1))
		c.A().Send("late", 4) // dropped
	})
	k.Run()
	if recvOK {
		t.Fatal("recv on closed end succeeded")
	}
	if c.B().Pending() != 0 {
		t.Fatal("packet queued after close")
	}
}

// duplexMsg is a payload with more than one field, as a session's tagged
// message is: it must arrive whole, by value.
type duplexMsg struct {
	seq  int
	from string
}

// TestDuplexFIFOAndMonotoneDelivery: both directions of one link deliver in
// send order, each after its send and no earlier than the message before it
// in the same direction, even when a later message is much smaller than an
// earlier one (its wire time shorter) and the latency draws come out of
// order.
func TestDuplexFIFOAndMonotoneDelivery(t *testing.T) {
	k, env := newEnv(4)
	c := NewConn[duplexMsg](env, cloud.RegionAWSHome, cloud.RegionAWSRemote)
	const n = 40
	for _, dir := range []struct {
		from     string
		src, dst *End[duplexMsg]
	}{{"a", c.A(), c.B()}, {"b", c.B(), c.A()}} {
		var sentAt [n]sim.Time
		k.Go("send-"+dir.from, func() {
			for i := 0; i < n; i++ {
				sentAt[i] = k.Now()
				dir.src.Send(duplexMsg{seq: i, from: dir.from}, ((n-i)%9)*4096)
				if i%5 == 0 {
					k.Sleep(sim.Ms(0.1))
				}
			}
		})
		k.Go("recv-"+dir.from, func() {
			var last sim.Time
			for i := 0; i < n; i++ {
				p, ok := dir.dst.Recv()
				if !ok {
					t.Errorf("%s->: closed after %d", dir.from, i)
					return
				}
				if p.Payload.seq != i || p.Payload.from != dir.from {
					t.Errorf("%s->: message %d is %+v", dir.from, i, p.Payload)
				}
				if p.Size != ((n-i)%9)*4096 {
					t.Errorf("%s->: message %d has size %d", dir.from, i, p.Size)
				}
				if now := k.Now(); now <= sentAt[i] {
					t.Errorf("%s->: message %d delivered at %v, not after its send at %v", dir.from, i, now, sentAt[i])
				} else if now < last {
					t.Errorf("%s->: message %d delivered at %v, before the one ahead of it at %v", dir.from, i, now, last)
				} else {
					last = now
				}
			}
		})
	}
	k.Run()
	if c.A().Pending() != 0 || c.B().Pending() != 0 {
		t.Fatalf("undelivered: %d, %d", c.A().Pending(), c.B().Pending())
	}
}

// TestSendRecvAllocatesNothing: a link's inbox keeps its array, and a
// payload travels by value, so a steady stream of sends and receives
// allocates nothing.
func TestSendRecvAllocatesNothing(t *testing.T) {
	k, env := newEnv(5)
	c := NewConn[duplexMsg](env, cloud.RegionAWSHome, cloud.RegionAWSHome)
	got := sim.AllocsPerRun(k, 200, func() {
		c.A().Send(duplexMsg{seq: 1, from: "a"}, 64)
		c.A().Send(duplexMsg{seq: 2, from: "a"}, 64)
		c.B().Recv()
		c.B().Recv()
	})
	if got != 0 {
		t.Fatalf("a send and receive: %v allocations, want 0", got)
	}
}

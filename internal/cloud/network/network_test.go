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
	c := NewConn(env, cloud.RegionAWSHome, cloud.RegionAWSHome)
	var got string
	var at sim.Time
	k.Go("receiver", func() {
		p, ok := c.B().Recv()
		if !ok {
			t.Error("closed")
			return
		}
		got = p.Payload.(string)
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
	c := NewLANConn(env)
	var got []int
	k.Go("receiver", func() {
		for i := 0; i < 50; i++ {
			p, ok := c.B().Recv()
			if !ok {
				return
			}
			got = append(got, p.Payload.(int))
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
	c := NewConn(env, cloud.RegionAWSHome, cloud.RegionAWSHome)
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
	same := NewConn(env, cloud.RegionAWSHome, cloud.RegionAWSHome)
	cross := NewConn(env, cloud.RegionAWSHome, cloud.RegionAWSRemote)
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
	c := NewLANConn(env)
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

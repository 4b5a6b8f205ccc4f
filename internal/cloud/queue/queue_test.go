package queue

import (
	"fmt"
	"math"
	"testing"

	"faaskeeper/internal/cloud"
	"faaskeeper/internal/sim"
)

func newEnv(seed int64) (*sim.Kernel, *cloud.Env, cloud.Ctx) {
	k := sim.NewKernel(seed)
	env := cloud.NewEnv(k, cloud.AWSProfile())
	return k, env, cloud.ClientCtx(cloud.RegionAWSHome)
}

func TestSeqNoMonotonic(t *testing.T) {
	k, env, ctx := newEnv(1)
	q := New(env, "reqs", cloud.QueueFIFO)
	var seqs []int64
	k.Go("sender", func() {
		for i := 0; i < 10; i++ {
			s, err := q.Send(ctx, "session-1", []byte("req"))
			if err != nil {
				t.Errorf("send: %v", err)
			}
			seqs = append(seqs, s)
		}
	})
	k.Run()
	for i := 1; i < len(seqs); i++ {
		if seqs[i] != seqs[i-1]+1 {
			t.Fatalf("seqs = %v", seqs)
		}
	}
}

func TestFIFOOrderPreserved(t *testing.T) {
	k, env, ctx := newEnv(2)
	q := New(env, "reqs", cloud.QueueFIFO)
	var got []string
	k.Go("consumer", func() {
		for {
			batch, ok := q.Receive(0)
			if !ok {
				return
			}
			for _, m := range batch {
				got = append(got, string(m.Body))
			}
		}
	})
	k.Go("sender", func() {
		for i := 0; i < 25; i++ {
			q.Send(ctx, "s", []byte(fmt.Sprintf("m%02d", i)))
		}
		q.Close()
	})
	k.Run()
	if len(got) != 25 {
		t.Fatalf("got %d messages", len(got))
	}
	for i, m := range got {
		if m != fmt.Sprintf("m%02d", i) {
			t.Fatalf("order broken at %d: %v", i, got)
		}
	}
}

func TestFIFOBatchCap(t *testing.T) {
	k, env, ctx := newEnv(3)
	q := New(env, "reqs", cloud.QueueFIFO)
	var sizes []int
	k.Go("sender", func() {
		for i := 0; i < 25; i++ {
			q.Send(ctx, "s", []byte("x"))
		}
		q.Close()
	})
	k.Go("consumer", func() {
		// Start after all messages are buffered so batches fill up.
		k.Sleep(sim.Ms(2000))
		for {
			batch, ok := q.Receive(0)
			if !ok {
				return
			}
			sizes = append(sizes, len(batch))
		}
	})
	k.Run()
	total := 0
	for _, s := range sizes {
		total += s
		if s > 10 {
			t.Fatalf("FIFO batch of %d exceeds SQS cap of 10", s)
		}
	}
	if total != 25 {
		t.Fatalf("delivered %d", total)
	}
	if sizes[0] != 10 {
		t.Fatalf("first batch should be full: %v", sizes)
	}
}

func TestMessageSizeLimit(t *testing.T) {
	k, env, ctx := newEnv(4)
	q := New(env, "reqs", cloud.QueueFIFO)
	k.Go("sender", func() {
		if _, err := q.Send(ctx, "s", make([]byte, 257*1024)); err == nil {
			t.Error("oversized send accepted")
		}
	})
	k.Run()
}

func TestSendBillsPer64KBChunk(t *testing.T) {
	k, env, ctx := newEnv(5)
	q := New(env, "reqs", cloud.QueueFIFO)
	k.Go("sender", func() {
		q.Send(ctx, "s", make([]byte, 64))       // 1 unit
		q.Send(ctx, "s", make([]byte, 200*1024)) // 4 units
	})
	k.Run()
	want := 5 * 0.5e-6
	if got := env.Meter.Cost("queue.msg"); math.Abs(got-want) > 1e-12 {
		t.Fatalf("queue cost = %v want %v", got, want)
	}
}

func TestUnorderedQueueKindsAvailable(t *testing.T) {
	k, env, ctx := newEnv(7)
	std := New(env, "std", cloud.QueueStandard)
	if std.Ordered() {
		t.Fatal("standard queue should be unordered")
	}
	if !New(env, "f", cloud.QueueFIFO).Ordered() {
		t.Fatal("fifo queue should be ordered")
	}
	k.Go("x", func() {
		std.Send(ctx, "", []byte("a"))
		b, ok := std.Receive(0)
		if !ok || len(b) != 1 {
			t.Errorf("receive: %v %v", b, ok)
		}
	})
	k.Run()
}

func TestGCPOrderedQueue(t *testing.T) {
	k := sim.NewKernel(8)
	env := cloud.NewEnv(k, cloud.GCPProfile())
	ctx := cloud.ClientCtx(cloud.RegionGCPHome)
	q := New(env, "pubsub", cloud.QueueOrdered)
	var deliverDelay sim.Time
	k.Go("x", func() {
		q.Send(ctx, "s", []byte("hi"))
		t0 := k.Now()
		q.Receive(0)
		deliverDelay = k.Now() - t0
	})
	k.Run()
	// Ordered Pub/Sub adds >100 ms of delivery overhead (Figure 7c).
	if deliverDelay < 100*sim.Ms(1) {
		t.Fatalf("ordered pubsub too fast: %v", deliverDelay)
	}
}

func TestUnknownKindPanics(t *testing.T) {
	k := sim.NewKernel(9)
	env := cloud.NewEnv(k, cloud.AWSProfile())
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for unavailable kind")
		}
	}()
	New(env, "q", cloud.QueueOrdered) // AWS profile has no ordered Pub/Sub
}

package faas

import (
	"errors"
	"testing"

	"faaskeeper/internal/cloud"
	"faaskeeper/internal/cloud/kv"
	"faaskeeper/internal/cloud/queue"
	"faaskeeper/internal/sim"
)

func newPlatform(seed int64) (*sim.Kernel, *cloud.Env, *Platform) {
	k := sim.NewKernel(seed)
	env := cloud.NewEnv(k, cloud.AWSProfile())
	return k, env, NewPlatform(env)
}

func TestDirectInvokeRunsHandler(t *testing.T) {
	k, env, p := newPlatform(1)
	var got []byte
	p.Deploy(Config{Name: "echo", MemoryMB: 512}, func(inv *Invocation) error {
		got = inv.Payload
		inv.K.Sleep(5 * sim.Ms(1))
		return nil
	})
	ctx := cloud.ClientCtx(cloud.RegionAWSHome)
	k.Go("client", func() {
		if err := p.Invoke(ctx, "echo", []byte("ping")); err != nil {
			t.Errorf("invoke: %v", err)
		}
	})
	k.Run()
	if string(got) != "ping" {
		t.Fatalf("payload = %q", got)
	}
	f := p.Function("echo")
	if f.Invocations() != 1 || f.ColdStarts() != 1 {
		t.Fatalf("inv=%d cold=%d", f.Invocations(), f.ColdStarts())
	}
	if env.Meter.Cost("faas.echo") <= 0 {
		t.Fatal("no faas charge")
	}
}

func TestWarmSandboxReuse(t *testing.T) {
	k, _, p := newPlatform(2)
	p.Deploy(Config{Name: "f", MemoryMB: 512}, func(inv *Invocation) error {
		inv.K.Sleep(sim.Ms(1))
		return nil
	})
	ctx := cloud.ClientCtx(cloud.RegionAWSHome)
	var first, second sim.Time
	k.Go("client", func() {
		t0 := k.Now()
		p.Invoke(ctx, "f", nil)
		first = k.Now() - t0
		t0 = k.Now()
		p.Invoke(ctx, "f", nil)
		second = k.Now() - t0
	})
	k.Run()
	f := p.Function("f")
	if f.ColdStarts() != 1 {
		t.Fatalf("cold starts = %d, want 1 (second call warm)", f.ColdStarts())
	}
	if second >= first {
		t.Fatalf("warm (%v) not faster than cold (%v)", second, first)
	}
}

// TestWarmRunAllocations: a warm invocation of an empty handler allocates
// its Invocation and nothing else — in particular not its meter category,
// which the function builds once at deploy time.
func TestWarmRunAllocations(t *testing.T) {
	k, env, p := newPlatform(3)
	p.Deploy(Config{Name: "noop"}, func(*Invocation) error { return nil })
	ctx := cloud.ClientCtx(cloud.RegionAWSHome)
	got := sim.AllocsPerRun(k, 200, func() {
		if err := p.Invoke(ctx, "noop", nil); err != nil {
			t.Fatalf("invoke: %v", err)
		}
	})
	if got != 1 {
		t.Fatalf("warm run of an empty handler: %v allocations, want 1 (its Invocation)", got)
	}
	if f := p.Function("noop"); f.ColdStarts() != 1 || env.Meter.Count("faas.noop") != 201 {
		t.Fatalf("%d cold starts and %d billed runs, want 1 and 201", f.ColdStarts(), env.Meter.Count("faas.noop"))
	}
}

// TestInvokeAsyncRecyclesAllocations: a warm asynchronous invocation
// allocates nothing — no process name, no process body and no Invocation:
// the platform recycles each invocation as it returns, and a payload is
// passed through, not copied. Its name is bound once at deploy time. It was
// 4 while InvokeAsync built "invoke-async:"+name, a closure, a future and an
// Invocation on every call; an invocation now has no future, since nobody
// waits for it.
func TestInvokeAsyncRecyclesAllocations(t *testing.T) {
	k, env, p := newPlatform(7)
	f := p.Deploy(Config{Name: "watch", MemoryMB: 512}, func(inv *Invocation) error {
		inv.K.Sleep(sim.Ms(5))
		return nil
	})
	returned := int64(0)
	f.OnReturn(func(tag int64, err error) {
		if err != nil {
			t.Errorf("async: %v", err)
		}
		returned += tag
	})
	ctx := cloud.ClientCtx(cloud.RegionAWSHome)
	payload := []byte("notification")
	got := sim.AllocsPerRun(k, 200, func() {
		// Two in flight at once: the second cannot reuse the first.
		p.InvokeAsync(ctx, "watch", payload, 1)
		p.InvokeAsync(ctx, "watch", payload, 2)
		k.Sleep(sim.Ms(200)) // both return
	})
	if got != 0 {
		t.Fatalf("two warm asynchronous invocations: %v allocations, want 0", got)
	}
	if f.ColdStarts() != 2 || env.Meter.Count("faas.watch") != 402 || returned != 3*201 {
		t.Fatalf("%d cold starts, %d billed runs and return tags summing to %d, want 2, 402 and %d",
			f.ColdStarts(), env.Meter.Count("faas.watch"), returned, 3*201)
	}
}

// TestWarmQueueDeliveryAllocations: a warm poller receives each batch into
// the buffer of the one before and runs it through the same Invocation, so
// a delivery allocates only the message body queue.Send copies.
func TestWarmQueueDeliveryAllocations(t *testing.T) {
	k, env, p := newPlatform(6)
	q := queue.New(env, "reqs", cloud.QueueFIFO)
	ran := sim.NewQueue[int](k)
	p.Deploy(Config{Name: "noop"}, func(inv *Invocation) error {
		ran.Push(len(inv.Messages))
		return nil
	})
	p.AddQueueTrigger(q, "noop", 1)
	ctx := cloud.ClientCtx(cloud.RegionAWSHome)
	body := []byte("request")
	got := sim.AllocsPerRun(k, 200, func() {
		if _, err := q.Send(ctx, "s", body); err != nil {
			t.Fatalf("send: %v", err)
		}
		if n, _ := ran.Pop(); n != 1 {
			t.Fatalf("a batch of %d, want 1", n)
		}
	})
	k.Shutdown()
	if got != 1 {
		t.Fatalf("warm queue-triggered delivery: %v allocations, want 1 (the body Send copies)", got)
	}
	if f := p.Function("noop"); f.ColdStarts() != 1 || f.Invocations() != 201 {
		t.Fatalf("%d cold starts in %d runs, want 1 in 201", f.ColdStarts(), f.Invocations())
	}
}

func TestSandboxExpiry(t *testing.T) {
	k, _, p := newPlatform(3)
	p.Deploy(Config{Name: "f", MemoryMB: 512}, func(inv *Invocation) error { return nil })
	ctx := cloud.ClientCtx(cloud.RegionAWSHome)
	k.Go("client", func() {
		p.Invoke(ctx, "f", nil)
		k.Sleep(11 * 60 * sim.Ms(1000)) // beyond the 10-minute idle TTL
		p.Invoke(ctx, "f", nil)
	})
	k.Run()
	if got := p.Function("f").ColdStarts(); got != 2 {
		t.Fatalf("cold starts = %d, want 2", got)
	}
}

func TestQueueTriggerDeliversBatchesInOrder(t *testing.T) {
	k, env, p := newPlatform(4)
	q := queue.New(env, "reqs", cloud.QueueFIFO)
	var seen []string
	p.Deploy(Config{Name: "follower", MemoryMB: 2048}, func(inv *Invocation) error {
		for _, m := range inv.Messages {
			seen = append(seen, string(m.Body))
			inv.K.Sleep(2 * sim.Ms(1))
		}
		return nil
	})
	p.AddQueueTrigger(q, "follower", 1)
	ctx := cloud.ClientCtx(cloud.RegionAWSHome)
	k.Go("client", func() {
		for i := 0; i < 30; i++ {
			q.Send(ctx, "s", []byte{byte('a' + i%26)})
		}
		q.Close()
	})
	k.Run()
	if len(seen) != 30 {
		t.Fatalf("saw %d messages", len(seen))
	}
	for i, s := range seen {
		if s != string(rune('a'+i%26)) {
			t.Fatalf("order broken at %d: %v", i, seen)
		}
	}
}

func TestQueueTriggerRetriesThenDrops(t *testing.T) {
	k, env, p := newPlatform(5)
	q := queue.New(env, "reqs", cloud.QueueFIFO)
	calls := 0
	p.Deploy(Config{Name: "bad", MemoryMB: 512, Retries: 2}, func(inv *Invocation) error {
		calls++
		return errors.New("boom")
	})
	p.AddQueueTrigger(q, "bad", 1)
	ctx := cloud.ClientCtx(cloud.RegionAWSHome)
	k.Go("client", func() {
		q.Send(ctx, "s", []byte("x"))
		k.Sleep(sim.Ms(5000))
		q.Close()
	})
	k.Run()
	if calls != 3 { // 1 try + 2 retries
		t.Fatalf("calls = %d", calls)
	}
	if p.Function("bad").Dropped() != 1 {
		t.Fatalf("dropped = %d", p.Function("bad").Dropped())
	}
}

func TestScheduledTrigger(t *testing.T) {
	k, _, p := newPlatform(6)
	runs := 0
	p.Deploy(Config{Name: "heartbeat", MemoryMB: 128}, func(inv *Invocation) error {
		runs++
		return nil
	})
	p.AddSchedule("heartbeat", 60*sim.Ms(1000))
	k.RunFor(5 * 60 * sim.Ms(1000))
	k.Shutdown()
	if runs != 4 { // fires at 1,2,3,4 min within [0,5min) given ~200ms cold start
		t.Fatalf("runs = %d", runs)
	}
}

func TestStreamTrigger(t *testing.T) {
	k, env, p := newPlatform(7)
	tbl := kv.NewTable(env, "state")
	s := tbl.EnableStream()
	var keys []string
	p.Deploy(Config{Name: "consumer", MemoryMB: 512}, func(inv *Invocation) error {
		for _, m := range inv.Messages {
			keys = append(keys, m.GroupID)
		}
		return nil
	})
	p.AddStreamTrigger(s, "consumer")
	ctx := cloud.ClientCtx(cloud.RegionAWSHome)
	k.Go("writer", func() {
		tbl.Put(ctx, "a", kv.Item{{Name: "v", V: kv.N(1)}}, nil)
		tbl.Put(ctx, "b", kv.Item{{Name: "v", V: kv.N(2)}}, nil)
		k.Sleep(sim.Ms(5000))
		s.Records.Close()
	})
	k.Run()
	if len(keys) != 2 || keys[0] != "a" || keys[1] != "b" {
		t.Fatalf("keys = %v", keys)
	}
}

// TestInvokeAsyncCompletes: the caller does not wait, and the return
// hook runs once the handler has run, after its bill, with the caller's tag.
func TestInvokeAsyncCompletes(t *testing.T) {
	k, env, p := newPlatform(8)
	f := p.Deploy(Config{Name: "watch", MemoryMB: 512}, func(inv *Invocation) error {
		inv.K.Sleep(sim.Ms(30))
		return nil
	})
	var issued, done sim.Time
	var billed int64
	f.OnReturn(func(tag int64, err error) {
		if tag != 7 || err != nil {
			t.Errorf("return hook got tag %d and error %v, want 7 and none", tag, err)
		}
		done, billed = k.Now(), env.Meter.Count("faas.watch")
	})
	ctx := cloud.ClientCtx(cloud.RegionAWSHome)
	k.Go("caller", func() {
		p.InvokeAsync(ctx, "watch", nil, 7)
		issued = k.Now()
	})
	k.Run()
	if issued != 0 {
		t.Fatalf("async invoke blocked caller until %v", issued)
	}
	if done < issued+sim.Ms(30) || billed != 1 {
		t.Fatalf("invocation returned at %v with %d billed runs, want past %v and 1", done, billed, issued+sim.Ms(30))
	}
}

func TestSandboxCtxScaling(t *testing.T) {
	_, _, p := newPlatform(9)
	small := p.Deploy(Config{Name: "small", MemoryMB: 128}, func(*Invocation) error { return nil })
	big := p.Deploy(Config{Name: "big", MemoryMB: 2048}, func(*Invocation) error { return nil })
	arm := p.Deploy(Config{Name: "arm", MemoryMB: 2048, Arch: ARM}, func(*Invocation) error { return nil })
	if small.SandboxCtx().IOScale >= big.SandboxCtx().IOScale {
		t.Fatal("small memory should have lower I/O scale")
	}
	if big.SandboxCtx().IOScale != 1 {
		t.Fatalf("2048MB IOScale = %v", big.SandboxCtx().IOScale)
	}
	if arm.SandboxCtx().ObjScale >= 1 {
		t.Fatal("ARM should penalize object-store transfers")
	}
	if arm.SandboxCtx().CPUScale <= big.SandboxCtx().CPUScale {
		t.Fatal("ARM base ops should be slightly faster")
	}
}

func TestDuplicateDeployPanics(t *testing.T) {
	_, _, p := newPlatform(10)
	p.Deploy(Config{Name: "f"}, func(*Invocation) error { return nil })
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	p.Deploy(Config{Name: "f"}, func(*Invocation) error { return nil })
}

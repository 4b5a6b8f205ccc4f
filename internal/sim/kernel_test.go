package sim

import (
	"runtime"
	"slices"
	"testing"
	"time"
)

func TestSleepAdvancesVirtualTime(t *testing.T) {
	k := NewKernel(1)
	var woke Time
	k.Go("sleeper", func() {
		k.Sleep(5 * time.Second)
		woke = k.Now()
	})
	end := k.Run()
	if woke != 5*time.Second {
		t.Fatalf("woke at %v, want 5s", woke)
	}
	if end != 5*time.Second {
		t.Fatalf("run ended at %v, want 5s", end)
	}
}

func TestEventOrderingIsDeterministic(t *testing.T) {
	run := func(seed int64) []string {
		k := NewKernel(seed)
		var order []string
		spawn := func(name string, d time.Duration) {
			k.Go(name, func() {
				k.Sleep(d)
				order = append(order, name)
			})
		}
		spawn("a", 3*time.Millisecond)
		spawn("b", 1*time.Millisecond)
		spawn("c", 2*time.Millisecond)
		spawn("d", 1*time.Millisecond) // same time as b: spawn order breaks the tie
		k.Run()
		return order
	}
	want := []string{"b", "d", "c", "a"}
	for seed := int64(0); seed < 3; seed++ {
		got := run(seed)
		if len(got) != len(want) {
			t.Fatalf("seed %d: got %v", seed, got)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("seed %d: got %v want %v", seed, got, want)
			}
		}
	}
}

func TestNestedSpawn(t *testing.T) {
	k := NewKernel(1)
	var hits []Time
	k.Go("outer", func() {
		k.Sleep(time.Second)
		k.Go("inner", func() {
			k.Sleep(time.Second)
			hits = append(hits, k.Now())
		})
		k.Sleep(3 * time.Second)
		hits = append(hits, k.Now())
	})
	k.Run()
	if len(hits) != 2 || hits[0] != 2*time.Second || hits[1] != 4*time.Second {
		t.Fatalf("hits = %v", hits)
	}
}

func TestFutureWaitAndComplete(t *testing.T) {
	k := NewKernel(1)
	f := NewFuture[int](k)
	var got int
	var at Time
	k.Go("waiter", func() {
		got = f.Wait()
		at = k.Now()
	})
	k.Go("completer", func() {
		k.Sleep(10 * time.Millisecond)
		f.Complete(42)
	})
	k.Run()
	if got != 42 || at != 10*time.Millisecond {
		t.Fatalf("got %d at %v", got, at)
	}
}

func TestFutureWaitTimeout(t *testing.T) {
	k := NewKernel(1)
	f := NewFuture[string](k)
	var ok bool
	var at Time
	k.Go("waiter", func() {
		_, ok = f.WaitTimeout(5 * time.Millisecond)
		at = k.Now()
	})
	k.Run()
	if ok {
		t.Fatal("expected timeout")
	}
	if at != 5*time.Millisecond {
		t.Fatalf("timed out at %v", at)
	}
}

func TestFutureTimeoutThenLateCompleteIsIgnored(t *testing.T) {
	k := NewKernel(1)
	f := NewFuture[int](k)
	var timedOut bool
	var resumedTwice int
	k.Go("waiter", func() {
		_, ok := f.WaitTimeout(time.Millisecond)
		timedOut = !ok
		resumedTwice++
		k.Sleep(10 * time.Millisecond) // late Complete must not wake this sleep early
		resumedTwice++
	})
	k.Go("late", func() {
		k.Sleep(2 * time.Millisecond)
		f.Complete(7)
	})
	end := k.Run()
	if !timedOut {
		t.Fatal("want timeout")
	}
	if resumedTwice != 2 {
		t.Fatalf("resume count %d", resumedTwice)
	}
	if end != 11*time.Millisecond {
		t.Fatalf("end %v", end)
	}
}

func TestWaitGroup(t *testing.T) {
	k := NewKernel(1)
	wg := NewWaitGroup(k)
	var doneAt Time
	for i := 1; i <= 3; i++ {
		wg.Add(1)
		d := time.Duration(i) * time.Second
		k.Go("w", func() {
			k.Sleep(d)
			wg.Done()
		})
	}
	k.Go("waiter", func() {
		wg.Wait()
		doneAt = k.Now()
	})
	k.Run()
	if doneAt != 3*time.Second {
		t.Fatalf("doneAt %v", doneAt)
	}
}

func TestSemaphoreLimitsConcurrency(t *testing.T) {
	k := NewKernel(1)
	sem := NewSemaphore(k, 2)
	active, maxActive := 0, 0
	for i := 0; i < 6; i++ {
		k.Go("worker", func() {
			sem.Acquire()
			active++
			if active > maxActive {
				maxActive = active
			}
			k.Sleep(time.Second)
			active--
			sem.Release()
		})
	}
	end := k.Run()
	if maxActive != 2 {
		t.Fatalf("maxActive = %d, want 2", maxActive)
	}
	if end != 3*time.Second {
		t.Fatalf("end %v, want 3s (6 jobs / 2 wide / 1s each)", end)
	}
}

func TestRunUntilStopsAtLimit(t *testing.T) {
	k := NewKernel(1)
	ticks := 0
	k.Go("ticker", func() {
		for {
			k.Sleep(time.Second)
			ticks++
		}
	})
	k.RunFor(5500 * time.Millisecond)
	if ticks != 5 {
		t.Fatalf("ticks = %d, want 5", ticks)
	}
	if k.Now() != 5500*time.Millisecond {
		t.Fatalf("now = %v", k.Now())
	}
	k.Shutdown()
	if k.Live() != 0 {
		t.Fatalf("live = %d after shutdown", k.Live())
	}
}

func TestShutdownReleasesParkedProcesses(t *testing.T) {
	k := NewKernel(1)
	q := NewQueue[int](k)
	for i := 0; i < 4; i++ {
		k.Go("blocked", func() {
			q.Pop() // blocks forever
		})
	}
	k.Run()
	if k.Live() != 4 {
		t.Fatalf("live = %d, want 4 parked", k.Live())
	}
	k.Shutdown()
	if k.Live() != 0 {
		t.Fatalf("live = %d after shutdown", k.Live())
	}
}

func TestYieldInterleavesSameInstant(t *testing.T) {
	k := NewKernel(1)
	var order []int
	k.Go("a", func() {
		order = append(order, 1)
		k.Yield()
		order = append(order, 3)
	})
	k.Go("b", func() {
		order = append(order, 2)
		k.Yield()
		order = append(order, 4)
	})
	k.Run()
	want := []int{1, 2, 3, 4}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v", order)
		}
	}
}

// TestRunUntilNeverMovesClockBack: a limit in the past runs nothing and
// leaves the clock where it is, also while later events are pending.
func TestRunUntilNeverMovesClockBack(t *testing.T) {
	k := NewKernel(1)
	k.Go("ticker", func() {
		for {
			k.Sleep(time.Second)
		}
	})
	k.RunUntil(15 * time.Second)
	if got := k.RunUntil(5 * time.Second); got != 15*time.Second {
		t.Fatalf("RunUntil(5s) after RunUntil(15s) returned %v, want 15s", got)
	}
	if k.Now() != 15*time.Second {
		t.Fatalf("now = %v, want 15s", k.Now())
	}
	k.Shutdown()
}

// TestShutdownUnwindsDeferredBlockers: a process whose deferred function
// blocks (in the codebase: a deferred lock release, which sleeps for the
// store's latency) must still be unwound completely by Shutdown — outer
// defers run and the goroutine exits.
func TestShutdownUnwindsDeferredBlockers(t *testing.T) {
	base := runtime.NumGoroutine()
	k := NewKernel(1)
	q := NewQueue[int](k)
	const n = 50
	outer := 0
	for i := 0; i < n; i++ {
		k.Go("blocker", func() {
			defer func() { outer++ }()
			defer k.Sleep(time.Millisecond)
			q.Pop() // blocks forever
		})
	}
	k.Run()
	if k.Live() != n {
		t.Fatalf("live = %d, want %d parked", k.Live(), n)
	}
	k.Shutdown()
	if k.Live() != 0 {
		t.Fatalf("live = %d after shutdown", k.Live())
	}
	if outer != n {
		t.Fatalf("%d of %d outer defers ran", outer, n)
	}
	// A process goroutine hands the baton back just before it returns, so
	// the last one may still be exiting when Shutdown returns.
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > base; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines left, want at most %d", runtime.NumGoroutine(), base)
		}
	}
}

// TestShutdownRunsNoSimulatedCode: unwinding a process may schedule
// wake-ups (here a deferred wg.Done), and its deferred functions may try to
// block; neither may let another process run past its blocking call.
func TestShutdownRunsNoSimulatedCode(t *testing.T) {
	for _, waiterFirst := range []bool{true, false} {
		k := NewKernel(1)
		q := NewQueue[int](k)
		wg := NewWaitGroup(k)
		wg.Add(1)
		ranPast := false
		waiter := func() {
			wg.Wait()
			ranPast = true
		}
		worker := func() {
			defer k.Sleep(time.Millisecond) // runs after Done made the waiter runnable
			defer wg.Done()
			q.Pop() // blocks forever
		}
		if waiterFirst {
			k.Go("waiter", waiter)
			k.Go("worker", worker)
		} else {
			k.Go("worker", worker)
			k.Go("waiter", waiter)
		}
		k.Run()
		k.Shutdown()
		if ranPast {
			t.Fatalf("waiterFirst=%v: waiter ran past Wait during Shutdown", waiterFirst)
		}
		if k.Live() != 0 {
			t.Fatalf("waiterFirst=%v: live = %d after shutdown", waiterFirst, k.Live())
		}
	}
}

// TestShutdownUnwindsInProcessOrder: deferred side effects happen in
// process-id order on every run, not in map order.
func TestShutdownUnwindsInProcessOrder(t *testing.T) {
	k := NewKernel(1)
	q := NewQueue[int](k)
	var order []int64
	for i := 0; i < 64; i++ {
		k.Go("blocked", func() {
			defer func() { order = append(order, k.Current().ID()) }()
			q.Pop()
		})
	}
	k.Run()
	k.Shutdown()
	if len(order) != 64 || !slices.IsSorted(order) {
		t.Fatalf("unwind order = %v", order)
	}
}

// TestExitedProcessesReleaseGoroutines is the tripwire for hand-offs that
// can block the sender. With one OS thread, a process goroutine that blocks
// in its final hand-off is readied through the runtime's runnext slot by a
// goroutine that keeps the time slice, so it exits only at the next
// preemption (~10 ms) while new processes exit every few microseconds:
// goroutines pile up, and the GC scans their stacks. Checked immediately
// after Run, with no host sleep that would let them drain.
func TestExitedProcessesReleaseGoroutines(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	base := runtime.NumGoroutine()
	k := NewKernel(1)
	k.Go("parent", func() {
		for i := 0; i < 2000; i++ {
			wg := NewWaitGroup(k)
			wg.Add(1)
			k.Go("child", func() {
				defer wg.Done()
				k.Sleep(time.Millisecond)
			})
			wg.Wait()
		}
	})
	k.Run()
	if n, limit := runtime.NumGoroutine(), base+k.Live()+1; n > limit {
		t.Fatalf("%d goroutines right after Run, want at most %d", n, limit)
	}
	k.Shutdown()
}

package sim

import (
	"fmt"
	"math"
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

// TestWaitGroupGoJoinsAfterEveryBody: WaitGroup.Go counts each body and the
// kernel calls Done as it returns, so Wait returns at the last body's end,
// after every body ran to its last statement.
func TestWaitGroupGoJoinsAfterEveryBody(t *testing.T) {
	k := NewKernel(1)
	wg := NewWaitGroup(k)
	returned := 0
	var doneAt Time
	for i := 1; i <= 3; i++ {
		d := time.Duration(i) * time.Second
		wg.Go("w", func() {
			k.Sleep(d)
			returned++
		})
	}
	k.Go("waiter", func() {
		wg.Wait()
		doneAt = k.Now()
		if returned != 3 {
			t.Errorf("Wait returned after %d of 3 bodies", returned)
		}
	})
	k.Run()
	if doneAt != 3*time.Second || wg.count != 0 {
		t.Fatalf("Wait returned at %v with count %d, want 3s and 0", doneAt, wg.count)
	}
}

// TestWaitGroupGoNamesTheProcess: the spawned process carries the name
// given, which is what fault hooks and tests select a process by.
func TestWaitGroupGoNamesTheProcess(t *testing.T) {
	k := NewKernel(1)
	wg := NewWaitGroup(k)
	var names []string
	for _, name := range []string{"leg-a", "leg-b"} {
		wg.Go(name, func() { names = append(names, k.Current().Name()) })
	}
	k.Run()
	if len(names) != 2 || names[0] != "leg-a" || names[1] != "leg-b" {
		t.Fatalf("process names %v, want [leg-a leg-b]", names)
	}
}

// TestWaitGroupGoShutdownWithParkedBody: Shutdown kills a counted body still
// parked. It does not call Done, so neither the count nor the waiter moves:
// no panic, and no simulated code runs past the waiter's Wait.
func TestWaitGroupGoShutdownWithParkedBody(t *testing.T) {
	k := NewKernel(1)
	wg := NewWaitGroup(k)
	q := NewQueue[int](k)
	wg.Go("blocked", func() { q.Pop() })
	woke := false
	k.Go("waiter", func() {
		wg.Wait()
		woke = true
	})
	k.Run()
	k.Shutdown()
	if woke || wg.count != 1 || k.Live() != 0 {
		t.Fatalf("after Shutdown: waiter woke %v, count %d, live %d; want false, 1, 0", woke, wg.count, k.Live())
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

// TestReusedProcessIgnoresStaleWakeups: a finished process is recycled by
// the next Go, and nothing addressed to its previous incarnation reaches
// the new one — not a WaitTimeout that fires after the process exited,
// not a waiter it left in a queue when its PopTimeout gave up.
func TestReusedProcessIgnoresStaleWakeups(t *testing.T) {
	k := NewKernel(1)
	f := NewFuture[int](k)
	q := NewQueue[int](k)
	var first, second, third *Process
	var wokeAt Time
	var got int
	k.Go("spawner", func() {
		first = k.Go("waiter", func() {
			f.WaitTimeout(10 * time.Millisecond) // completed at 1 ms; the timeout stays queued for 10 ms
			q.PopTimeout(time.Millisecond)       // gives up at 2 ms, its waiter left in q
		})
		k.Sleep(time.Millisecond)
		f.Complete(1)
		k.Sleep(2 * time.Millisecond)
		second = k.Go("sleeper", func() {
			k.Sleep(20 * time.Millisecond) // the old timeout fires at 10 ms, mid-sleep
			wokeAt = k.Now()
		})
		k.Sleep(25 * time.Millisecond)
		third = k.Go("popper", func() { got, _ = q.Pop() })
		k.Sleep(time.Millisecond)
		q.Push(7) // wakes the first waiter still parked: the new incarnation, not the stale one
	})
	k.Run()
	if second != first || third != first {
		t.Fatalf("the exited process was not reused (%p, %p, %p): the test proves nothing", first, second, third)
	}
	if wokeAt != 23*time.Millisecond {
		t.Errorf("the reused process woke at %v, want 23ms: a wake-up of its previous incarnation reached it", wokeAt)
	}
	if got != 7 || k.Live() != 0 {
		t.Errorf("the reused process popped %d with %d processes left, want 7 and none: the stale queue waiter took the push", got, k.Live())
	}
	k.Shutdown()
}

// TestIdleProcessesAreUnwound: finished processes wait for reuse only while
// the kernel runs. When Run returns, and again after Shutdown, the process
// goroutines are back to the live processes alone.
func TestIdleProcessesAreUnwound(t *testing.T) {
	base := runtime.NumGoroutine()
	k := NewKernel(1)
	q := NewQueue[int](k)
	k.Go("blocked", func() { q.Pop() }) // stays live
	k.Go("parent", func() {
		for i := 0; i < 100; i++ {
			wg := NewWaitGroup(k)
			for j := 0; j < 8; j++ {
				wg.Add(1)
				k.Go("child", func() {
					defer wg.Done()
					k.Sleep(time.Millisecond)
				})
			}
			wg.Wait()
		}
	})
	k.Run()
	settled := func(want int, when string) {
		for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > want; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("%s: %d goroutines, want %d", when, runtime.NumGoroutine(), want)
			}
		}
	}
	settled(base+1, "after Run") // the blocked process
	k.Shutdown()
	settled(base, "after Shutdown")
}

// TestSweepKeepsHeapBounded: every wait below completes long before its
// 60 s timeout, which stays in the heap, dead. The sweep keeps the heap
// near the live processes' share, and the run — each wake-up's instant and
// order, and the end of every RunFor window — matches a kernel that never
// sweeps. A last sweep once the waits are over empties the heap, so the
// windows after it are pending only for timeouts no longer in it.
func TestSweepKeepsHeapBounded(t *testing.T) {
	run := func(sweep bool) (log []string, ends []Time, peak, left int) {
		k := NewKernel(5)
		if !sweep {
			k.sweepMin = math.MaxInt
		}
		for w := 0; w < 3; w++ {
			name := fmt.Sprint("waiter-", w)
			k.Go(name, func() {
				for i := 0; i < 400; i++ {
					f := NewFuture[int](k)
					k.Go("completer", func() {
						k.Sleep(time.Duration(1+k.Rand().Intn(5)) * time.Millisecond)
						f.Complete(i)
					})
					v, ok := f.WaitTimeout(60 * time.Second)
					log = append(log, fmt.Sprint(name, v, ok, k.Now()))
					peak = max(peak, len(k.events))
				}
			})
		}
		k.Go("sweeper", func() {
			k.Sleep(5 * time.Second)
			if sweep {
				k.sweep()
			}
		})
		for _, d := range []time.Duration{time.Second, 10 * time.Second, 30 * time.Second, 100 * time.Second} {
			ends = append(ends, k.RunFor(d))
			if len(ends) == 2 {
				left = len(k.events)
			}
		}
		return log, ends, peak, left
	}
	log, ends, peak, left := run(true)
	wantLog, wantEnds, unswept, _ := run(false)
	if !slices.Equal(log, wantLog) || !slices.Equal(ends, wantEnds) {
		t.Fatalf("the swept run differs: ends %v, want %v", ends, wantEnds)
	}
	// The waits end near 2.4 s: the next two windows run to their limit
	// for the timeouts pending past it, the last one stops where they did.
	if want := []Time{time.Second, 11 * time.Second, 41 * time.Second, 41 * time.Second}; !slices.Equal(ends, want) {
		t.Errorf("RunFor windows ended at %v, want %v", ends, want)
	}
	if peak > 200 || unswept < 1000 {
		t.Errorf("heap peaked at %d entries swept, %d unswept; want at most 200 and over 1000", peak, unswept)
	}
	if left != 0 {
		t.Errorf("%d wake-ups left after the last sweep, want none", left)
	}
}

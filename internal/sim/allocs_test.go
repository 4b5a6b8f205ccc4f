package sim

import (
	"testing"
	"time"
)

// The kernel's allocation floor. Every process hand-off in the simulated
// cloud goes through these primitives, so each allocation here is paid
// several times per simulated request.

// echo starts a process that answers every item of in on out until in
// closes: the blocking pop registers a waiter every time.
func echo(k *Kernel, in, out *Queue[int]) {
	k.Go("echo", func() {
		for {
			v, ok := in.Pop()
			if !ok {
				return
			}
			out.Push(v)
		}
	})
}

// TestQueueSteadyStateAllocations: a queue in steady state — a push for
// every pop, by a process that blocks in Pop — keeps its item and waiter
// arrays and allocates nothing.
func TestQueueSteadyStateAllocations(t *testing.T) {
	k := NewKernel(1)
	q := NewQueue[int](k)
	if got := AllocsPerRun(k, 1000, func() {
		q.Push(1)
		q.Pop()
	}); got != 0 {
		t.Errorf("Push + Pop: %v allocations, want 0", got)
	}

	ping, pong := NewQueue[int](k), NewQueue[int](k)
	echo(k, ping, pong)
	if got := AllocsPerRun(k, 1000, func() {
		ping.Push(1)
		pong.Pop()
	}); got != 0 {
		t.Errorf("a round trip through a blocked popper: %v allocations, want 0", got)
	}
	ping.Close()
	k.Run()
}

// TestSingleWaiterAllocations: a future and a wait group with one process
// waiting hold its waiter without allocating.
func TestSingleWaiterAllocations(t *testing.T) {
	k := NewKernel(1)
	const runs = 1000
	futs := make([]*Future[int], 2*(runs+1))
	for i := range futs {
		futs[i] = NewFuture[int](k)
	}
	req := NewQueue[*Future[int]](k)
	k.Go("completer", func() {
		for {
			f, ok := req.Pop()
			if !ok {
				return
			}
			k.Sleep(time.Millisecond)
			f.Complete(1)
		}
	})
	next := 0
	if got := AllocsPerRun(k, runs, func() {
		f := futs[next]
		next++
		req.Push(f)
		f.Wait()
	}); got != 0 {
		t.Errorf("Future.Wait: %v allocations, want 0", got)
	}
	if got := AllocsPerRun(k, runs, func() {
		f := futs[next]
		next++
		req.Push(f)
		if _, ok := f.WaitTimeout(2 * time.Millisecond); !ok {
			t.Fatal("WaitTimeout timed out")
		}
	}); got != 0 {
		t.Errorf("Future.WaitTimeout: %v allocations, want 0", got)
	}
	req.Close()

	wg := NewWaitGroup(k)
	kick := NewQueue[int](k)
	k.Go("done-er", func() {
		for {
			if _, ok := kick.Pop(); !ok {
				return
			}
			k.Sleep(time.Millisecond)
			wg.Done()
		}
	})
	if got := AllocsPerRun(k, runs, func() {
		wg.Add(1)
		kick.Push(1)
		wg.Wait()
	}); got != 0 {
		t.Errorf("WaitGroup.Wait: %v allocations, want 0", got)
	}
	kick.Close()
	k.Run()
}

// TestSpawnAllocations: a process that runs to exit reuses a finished
// process and its goroutine. The bench probe's shape (sim.spawn_allocs) —
// spawn, complete a future, wait for it — pays only for the future and the
// closure; a body bound once pays nothing.
func TestSpawnAllocations(t *testing.T) {
	k := NewKernel(1)
	if got := AllocsPerRun(k, 1000, func() {
		done := NewFuture[struct{}](k)
		k.Go("spawned", func() { done.Complete(struct{}{}) })
		done.Wait()
	}); got > 2 {
		t.Errorf("Go + run to exit + wait: %v allocations, want at most 2 (the future and the closure)", got)
	}

	wg := NewWaitGroup(k)
	body := wg.Done
	if got := AllocsPerRun(k, 1000, func() {
		wg.Add(1)
		k.Go("spawned", body)
		wg.Wait()
	}); got != 0 {
		t.Errorf("Go of a body bound once: %v allocations, want 0", got)
	}
}

// TestWaitGroupGoAllocations: a steady-state round through WaitGroup.Go —
// three bodies bound once, spawned and joined, the flush legs' shape —
// allocates nothing.
func TestWaitGroupGoAllocations(t *testing.T) {
	k := NewKernel(1)
	round := NewWaitGroup(k)
	leg := func() { k.Sleep(time.Millisecond) }
	if got := AllocsPerRun(k, 1000, func() {
		for range 3 {
			round.Go("leg", leg)
		}
		round.Wait()
	}); got != 0 {
		t.Errorf("a round of WaitGroup.Go of bodies bound once: %v allocations, want 0", got)
	}
}

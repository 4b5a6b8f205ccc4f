package sim

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

// TestTimeNeverRegressesProperty: no matter how sleeps interleave, the
// kernel's clock is non-decreasing at every wake-up and every process
// wakes exactly as many times as it sleeps.
func TestTimeNeverRegressesProperty(t *testing.T) {
	f := func(seed int64, delays []uint16) bool {
		if len(delays) == 0 {
			return true
		}
		k := NewKernel(seed)
		var last Time
		ok := true
		wakes := 0
		for pi := 0; pi < 4; pi++ {
			pi := pi
			k.Go("p", func() {
				for j, d := range delays {
					if j%4 != pi {
						continue
					}
					k.Sleep(time.Duration(d) * time.Microsecond)
					if k.Now() < last {
						ok = false
					}
					last = k.Now()
					wakes++
				}
			})
		}
		k.Run()
		k.Shutdown()
		return ok && wakes == len(delays)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// TestDeterminismAcrossRunsProperty: identical seeds produce identical
// schedules even with randomized latency sampling in between.
func TestDeterminismAcrossRunsProperty(t *testing.T) {
	run := func(seed int64) []Time {
		k := NewKernel(seed)
		d := Q(1, 3, 9, 20, 100)
		var trace []Time
		for p := 0; p < 3; p++ {
			k.Go("p", func() {
				for i := 0; i < 10; i++ {
					k.Sleep(d.Sample(k.Rand()))
					trace = append(trace, k.Now())
				}
			})
		}
		k.Run()
		k.Shutdown()
		return trace
	}
	for seed := int64(0); seed < 5; seed++ {
		a, b := run(seed), run(seed)
		if len(a) != len(b) {
			t.Fatalf("seed %d: lengths differ", seed)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("seed %d: divergence at %d: %v vs %v", seed, i, a[i], b[i])
			}
		}
	}
}

// TestFutureCompletedTwicePanics guards the double-completion invariant.
func TestFutureCompletedTwicePanics(t *testing.T) {
	k := NewKernel(1)
	f := NewFuture[int](k)
	k.Go("x", func() {
		f.Complete(1)
		defer func() {
			if recover() == nil {
				t.Error("second Complete did not panic")
			}
		}()
		f.Complete(2)
	})
	k.Run()
	k.Shutdown()
	if f.TryComplete(3) {
		// TryComplete on a done future must report false.
		t.Error("TryComplete on done future returned true")
	}
}

// TestSemaphoreTryAcquire covers the non-blocking path.
func TestSemaphoreTryAcquire(t *testing.T) {
	k := NewKernel(1)
	s := NewSemaphore(k, 1)
	k.Go("x", func() {
		if !s.TryAcquire() {
			t.Error("first TryAcquire failed")
		}
		if s.TryAcquire() {
			t.Error("second TryAcquire should fail")
		}
		s.Release()
		if s.Available() != 1 {
			t.Errorf("available = %d", s.Available())
		}
	})
	k.Run()
	k.Shutdown()
}

// TestWaitGroupNegativePanics guards against double Done.
func TestWaitGroupNegativePanics(t *testing.T) {
	k := NewKernel(1)
	wg := NewWaitGroup(k)
	k.Go("x", func() {
		wg.Add(1)
		wg.Done()
		defer func() {
			if recover() == nil {
				t.Error("negative WaitGroup did not panic")
			}
		}()
		wg.Done()
	})
	k.Run()
	k.Shutdown()
}

// TestEventHeapPopsInAtSeqOrderProperty: the typed event heap pops exactly
// in sorted (at, seq) order — with few distinct timestamps, so most
// comparisons fall through to the seq tiebreaker, and with pops interleaved
// between pushes as the scheduler does. Every virtual-time number rests on
// this order. Vacated slots must also be zeroed so a popped event's
// *Process is not pinned by the backing array.
func TestEventHeapPopsInAtSeqOrderProperty(t *testing.T) {
	f := func(ats []uint8, popEvery uint8) bool {
		var h eventHeap
		var ref []event // the heap's contents, kept sorted by (at, seq)
		popMatches := func() bool {
			want := ref[0]
			ref = ref[1:]
			return h.peek() == want && h.pop() == want
		}
		stride := int(popEvery%5) + 2
		for i, at := range ats {
			e := event{at: Time(at % 8), seq: int64(i + 1), proc: &Process{}}
			h.push(e)
			ref = append(ref, e)
			sort.Slice(ref, func(a, b int) bool { return ref[a].before(ref[b]) })
			if i%stride == 0 && !popMatches() {
				return false
			}
		}
		backing := h[:cap(h)]
		for len(ref) > 0 {
			if !popMatches() {
				return false
			}
		}
		for _, e := range backing {
			if e != (event{}) {
				return false // a vacated slot still holds its event
			}
		}
		return len(h) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// stepLog is what a process mix leaves behind: one (time, process, step)
// entry per scheduling-visible action, in execution order.
type stepLog []logEntry

type logEntry struct {
	at   Time
	proc int64
	step int
}

// spawnRandomMix starts a few processes that sleep, wait on futures with
// timeouts, exchange items through queues and spawn children, all driven by
// the kernel's own random source — so any difference in scheduling changes
// every later draw and shows in the log.
func spawnRandomMix(k *Kernel, log *stepLog) {
	rng := k.Rand()
	us := func(n int) Time { return Time(rng.Intn(n)) * time.Microsecond }
	record := func(step int) {
		*log = append(*log, logEntry{k.Now(), k.Current().ID(), step})
	}
	queues := []*Queue[int]{NewQueue[int](k), NewQueue[int](k)}
	var body func(depth, steps int) func()
	body = func(depth, steps int) func() {
		return func() {
			for i := 0; i < steps; i++ {
				switch rng.Intn(6) {
				case 0, 1:
					k.Sleep(us(3000))
				case 2:
					f := NewFuture[int](k)
					d := us(2000)
					k.Go("completer", func() {
						k.Sleep(d)
						f.TryComplete(1)
					})
					if _, ok := f.WaitTimeout(us(2000)); ok {
						record(-1)
					}
				case 3:
					queues[rng.Intn(len(queues))].Push(i)
				case 4:
					if _, ok := queues[rng.Intn(len(queues))].PopTimeout(us(4000)); ok {
						record(-2)
					}
				case 5:
					if depth < 2 {
						k.Go("child", body(depth+1, 1+rng.Intn(4)))
					}
				}
				record(i)
			}
		}
	}
	for p, n := 0, 3+rng.Intn(4); p < n; p++ {
		k.Go("p", body(0, 5+rng.Intn(20)))
	}
}

// TestRunForWindowsMatchRunProperty: driving the kernel in RunFor windows of
// arbitrary length (chaos and recipes step it in 1 s windows) executes
// exactly the schedule one Run() executes.
func TestRunForWindowsMatchRunProperty(t *testing.T) {
	f := func(seed, windowSeed int64) bool {
		var whole, windowed stepLog
		k := NewKernel(seed)
		spawnRandomMix(k, &whole)
		k.Run()
		k.Shutdown()

		k = NewKernel(seed)
		spawnRandomMix(k, &windowed)
		windows := rand.New(rand.NewSource(windowSeed))
		for len(k.events) > 0 {
			// Zero-length windows included: they run what is due now.
			k.RunFor(Time(windows.Intn(5000)) * time.Microsecond)
		}
		k.Shutdown()
		return len(whole) > 0 && slices.Equal(whole, windowed)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

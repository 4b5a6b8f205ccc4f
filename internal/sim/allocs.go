package sim

import (
	"runtime"
	"sync"
)

// AllocsPerRun is testing.AllocsPerRun for code that must run inside a
// process (anything that sleeps or waits): it calls fn once to warm up,
// then runs more times inside one process of k, and returns the number of
// heap allocations per call, truncated to an integer as testing.AllocsPerRun
// does (a buffer that grows now and then does not count). Whatever a call
// makes other processes do before it returns counts too, so it prices a
// whole round trip. Like Run, it must be called from outside any process,
// and it runs k until nothing is left to run.
func AllocsPerRun(k *Kernel, runs int, fn func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var mallocs uint64
	k.Go("allocs-per-run", func() {
		fn()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		for i := 0; i < runs; i++ {
			fn()
		}
		runtime.ReadMemStats(&m1)
		mallocs = m1.Mallocs - m0.Mallocs
	})
	k.Run()
	return float64(mallocs / uint64(runs))
}

// WorkPerRun is AllocsPerRun for the kernel's own work (Work): it calls fn
// once to warm up, then runs more times inside one process of k, and returns
// the work those runs did in all — not per run, which need not be whole. It
// is exact for a seed, under the race detector too.
func WorkPerRun(k *Kernel, runs int, fn func()) Work {
	var w Work
	k.Go("work-per-run", func() {
		fn()
		w0 := k.Work()
		for i := 0; i < runs; i++ {
			fn()
		}
		w = k.Work().Sub(w0)
	})
	k.Run()
	return w
}

// PoolDropsPuts reports whether a sync.Pool fails to hand back what was
// just put in it, as under the race detector, which drops a quarter of all
// puts: code that keeps its scratch in a pool then reallocates at random,
// and no AllocsPerRun count of it is exact.
func PoolDropsPuts() bool {
	var p sync.Pool
	x := new(int)
	for i := 0; i < 100; i++ {
		p.Put(x)
		if p.Get() != x {
			return true
		}
	}
	return false
}

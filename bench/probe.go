package main

import (
	"runtime"
	"sort"
	"time"

	"faaskeeper/internal/cloud"
	"faaskeeper/internal/sim"
)

// A layer probe times one layer's public functions in fixed-count loops
// inside one sim process. _ns and _allocs are host-side per call, _vms is
// virtual time per call. Each probe lives in its own probe_<layer>.go and
// registers itself, so a PR that removes a layer's entry point retires
// the file and its names in BENCHMARK.json and touches nothing else.
type probe struct {
	layer string
	run   func(scale float64) []metric
}

var probes []probe

func registerProbe(layer string, run func(scale float64) []metric) {
	probes = append(probes, probe{layer, run})
}

// runProbes runs every registered probe at the given share of its full
// loop counts, in layer order.
func runProbes(scale float64) []metric {
	sort.Slice(probes, func(i, j int) bool { return probes[i].layer < probes[j].layer })
	var out []metric
	for _, p := range probes {
		out = append(out, p.run(scale)...)
	}
	return out
}

// probeSeed is fixed: a probe's virtual time per call is a cloud-profile
// constant, and must not move with the workload seed.
const probeSeed = 1

// inSim runs body as the only user process of a fresh simulated cloud and
// returns once the simulation has gone idle.
func inSim(body func(k *sim.Kernel, env *cloud.Env, ctx cloud.Ctx)) {
	k := sim.NewKernel(probeSeed)
	env := cloud.NewEnv(k, cloud.AWSProfile())
	k.Go("bench-probe", func() { body(k, env, cloud.ClientCtx(env.Profile.Home)) })
	k.Run()
	k.Shutdown()
}

// loopCost is what one call of a probed function costs.
type loopCost struct{ ns, allocs, vms float64 }

// loop calls body n times (at least 16) and returns the cost per call.
// With a nil kernel it measures plain host code.
func loop(k *sim.Kernel, n int, scale float64, body func(i int)) loopCost {
	n = max(int(float64(n)*scale), 16)
	var v0 sim.Time
	if k != nil {
		v0 = k.Now()
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	for i := 0; i < n; i++ {
		body(i)
	}
	host := time.Since(t0)
	runtime.ReadMemStats(&m1)
	c := loopCost{
		ns:     float64(host.Nanoseconds()) / float64(n),
		allocs: float64(m1.Mallocs-m0.Mallocs) / float64(n),
	}
	if k != nil {
		c.vms = vms(k.Now()-v0) / float64(n)
	}
	return c
}

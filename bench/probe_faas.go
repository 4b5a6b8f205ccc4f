package main

import (
	"fmt"

	"faaskeeper/internal/cloud"
	"faaskeeper/internal/cloud/faas"
	"faaskeeper/internal/sim"
)

func init() { registerProbe("faas", probeFaaS) }

// probeFaaS times a direct invocation of an empty handler: warm on one
// function, cold on a fresh function per call.
func probeFaaS(scale float64) []metric {
	var warm, cold loopCost
	inSim(func(k *sim.Kernel, env *cloud.Env, ctx cloud.Ctx) {
		p := faas.NewPlatform(env)
		noop := func(*faas.Invocation) error { return nil }
		p.Deploy(faas.Config{Name: "warm"}, noop)
		must(p.Invoke(ctx, "warm", nil))
		warm = loop(k, 50000, scale, func(int) { must(p.Invoke(ctx, "warm", nil)) })
		cold = loop(k, 2000, scale, func(i int) {
			name := fmt.Sprintf("cold-%d", i)
			p.Deploy(faas.Config{Name: name}, noop)
			must(p.Invoke(ctx, name, nil))
		})
	})
	return []metric{
		{"faas.invoke_warm_ns", warm.ns, "ns"},
		{"faas.invoke_warm_vms", warm.vms, "vms"},
		{"faas.invoke_cold_vms", cold.vms, "vms"},
	}
}

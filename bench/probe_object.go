package main

import (
	"faaskeeper/internal/cloud"
	"faaskeeper/internal/cloud/object"
	"faaskeeper/internal/sim"
)

func init() { registerProbe("object", probeObject) }

// probeObject times 1 KB puts and gets on the paper preset's user store.
func probeObject(scale float64) []metric {
	var put, get loopCost
	inSim(func(k *sim.Kernel, env *cloud.Env, ctx cloud.Ctx) {
		b := object.NewBucket(env, "bench", env.Profile.Home)
		data := make([]byte, 1024)
		put = loop(k, 50000, scale, func(int) { b.Put(ctx, "n", data) })
		get = loop(k, 50000, scale, func(int) {
			_, err := b.Get(ctx, "n")
			must(err)
		})
	})
	return []metric{
		{"object.put_ns", put.ns, "ns"},
		{"object.put_vms", put.vms, "vms"},
		{"object.get_ns", get.ns, "ns"},
		{"object.get_allocs", get.allocs, "count"},
		{"object.get_vms", get.vms, "vms"},
	}
}

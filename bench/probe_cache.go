package main

import (
	"faaskeeper/internal/cache"
	"faaskeeper/internal/cloud"
	"faaskeeper/internal/sim"
)

func init() { registerProbe("cache", probeCache) }

// probeCache times a hit in each cache level: the session's LRU (host
// code only) and the regional node (one round trip).
func probeCache(scale float64) []metric {
	blob := make([]byte, 1100)
	lru := cache.NewLRU(256 << 10)
	lru.Put("/n0001", cache.Entry{Blob: blob, Mzxid: 7})
	get := loop(nil, 2000000, scale, func(int) {
		if _, ok := lru.Get("/n0001"); !ok {
			panic("bench: cache probe entry missing")
		}
	})
	var lookup loopCost
	inSim(func(k *sim.Kernel, env *cloud.Env, ctx cloud.Ctx) {
		rc := cache.NewRegional(env, env.Profile.Home, 0)
		if !rc.Fill(ctx, "/n0001", blob, 7) {
			panic("bench: cache probe fill rejected")
		}
		lookup = loop(k, 100000, scale, func(int) {
			if _, _, ok := rc.Lookup(ctx, "/n0001"); !ok {
				panic("bench: cache probe entry missing")
			}
		})
	})
	return []metric{
		{"cache.lru_get_ns", get.ns, "ns"},
		{"cache.regional_lookup_ns", lookup.ns, "ns"},
		{"cache.regional_lookup_vms", lookup.vms, "vms"},
	}
}

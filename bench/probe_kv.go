package main

import (
	"faaskeeper/internal/cloud"
	"faaskeeper/internal/cloud/kv"
	"faaskeeper/internal/sim"
)

func init() { registerProbe("kv", probeKV) }

// probeKV times the system store's three operations on the write path: a
// conditional update (every lock, commit and epoch write), a strongly
// consistent get, and a two-item transaction (create and delete).
func probeKV(scale float64) []metric {
	var update, get, transact loopCost
	inSim(func(k *sim.Kernel, env *cloud.Env, ctx cloud.Ctx) {
		tbl := kv.NewTable(env, "bench")
		update = loop(k, 50000, scale, func(i int) {
			_, err := tbl.Update(ctx, "n",
				[]kv.Update{kv.Set{Name: "lock", V: kv.N(int64(i))}},
				kv.Or{kv.AttrNotExists{Name: "absent"}})
			must(err)
		})
		get = loop(k, 50000, scale, func(int) {
			if _, ok := tbl.Get(ctx, "n", true); !ok {
				panic("bench: kv probe item missing")
			}
		})
		transact = loop(k, 30000, scale, func(i int) {
			must(tbl.Transact(ctx, []kv.TxOp{
				{Key: "a", Updates: []kv.Update{kv.Set{Name: "v", V: kv.N(int64(i))}}},
				{Key: "b", Updates: []kv.Update{kv.Set{Name: "v", V: kv.N(int64(i))}}},
			}))
		})
	})
	return []metric{
		{"kv.update_cond_ns", update.ns, "ns"},
		{"kv.update_cond_allocs", update.allocs, "count"},
		{"kv.update_cond_vms", update.vms, "vms"},
		{"kv.get_ns", get.ns, "ns"},
		{"kv.transact2_ns", transact.ns, "ns"},
	}
}

// must stops a probe whose loop body failed: a probe has no oracle, and a
// failing call would time the error path.
func must(err error) {
	if err != nil {
		panic("bench: probe call failed: " + err.Error())
	}
}

package main

import (
	"time"

	"faaskeeper/internal/cloud"
	"faaskeeper/internal/cloud/kv"
	"faaskeeper/internal/fksync"
	"faaskeeper/internal/sim"
)

func init() { registerProbe("fksync", probeFksync) }

// probeFksync times the follower's timed lock: acquire, then commit and
// unlock in one conditional write (Algorithm 1, steps 1 and 4).
func probeFksync(scale float64) []metric {
	var c loopCost
	inSim(func(k *sim.Kernel, env *cloud.Env, ctx cloud.Ctx) {
		locks := fksync.NewLockManager(env, kv.NewTable(env, "bench"), 2*time.Second)
		c = loop(k, 30000, scale, func(i int) {
			l, _, err := locks.Acquire(ctx, "n")
			must(err)
			_, err = locks.CommitUnlock(ctx, l, []kv.Update{kv.Set{Name: "v", V: kv.N(int64(i))}})
			must(err)
		})
	})
	return []metric{
		{"fksync.lock_commit_ns", c.ns, "ns"},
		{"fksync.lock_commit_vms", c.vms, "vms"},
	}
}

package main

import (
	"faaskeeper/internal/cloud"
	"faaskeeper/internal/cloud/queue"
	"faaskeeper/internal/sim"
)

func init() { registerProbe("queue", probeQueue) }

// probeQueue times one 1 KB message through the ordered queue both hops of
// the write pipeline use: a send, then the receive a trigger would make.
func probeQueue(scale float64) []metric {
	var c loopCost
	inSim(func(k *sim.Kernel, env *cloud.Env, ctx cloud.Ctx) {
		q := queue.New(env, "bench", env.Profile.OrderedQueueKind())
		body := make([]byte, 1024)
		c = loop(k, 30000, scale, func(int) {
			_, err := q.Send(ctx, "g", body)
			must(err)
			if _, ok := q.Receive(1); !ok {
				panic("bench: queue probe lost its message")
			}
		})
	})
	return []metric{
		{"queue.send_recv_ns", c.ns, "ns"},
		{"queue.send_recv_allocs", c.allocs, "count"},
		{"queue.send_recv_vms", c.vms, "vms"},
	}
}

package main

import (
	"time"

	"faaskeeper/internal/cloud"
	"faaskeeper/internal/sim"
)

func init() { registerProbe("sim", probeSim) }

// probeSim times the kernel's four process-switch shapes: a timer wake-up,
// a spawn that runs to completion, and a hand-off between two processes
// through a future and through a queue.
func probeSim(scale float64) []metric {
	var sleep, spawn, future, queue loopCost
	inSim(func(k *sim.Kernel, _ *cloud.Env, _ cloud.Ctx) {
		sleep = loop(k, 200000, scale, func(int) { k.Sleep(time.Millisecond) })

		spawn = loop(k, 100000, scale, func(int) {
			done := sim.NewFuture[struct{}](k)
			k.Go("bench-spawned", func() { done.Complete(struct{}{}) })
			done.Wait()
		})

		req := sim.NewQueue[*sim.Future[int]](k)
		k.Go("bench-future-peer", func() {
			for {
				f, ok := req.Pop()
				if !ok {
					return
				}
				f.Complete(1)
			}
		})
		future = loop(k, 100000, scale, func(int) {
			f := sim.NewFuture[int](k)
			req.Push(f)
			f.Wait()
		})
		req.Close()

		ping, pong := sim.NewQueue[int](k), sim.NewQueue[int](k)
		k.Go("bench-queue-peer", func() {
			for {
				v, ok := ping.Pop()
				if !ok {
					return
				}
				pong.Push(v)
			}
		})
		queue = loop(k, 100000, scale, func(i int) {
			ping.Push(i)
			pong.Pop()
		})
		ping.Close()
	})
	return []metric{
		{"sim.sleep_ns", sleep.ns, "ns"},
		{"sim.sleep_allocs", sleep.allocs, "count"},
		{"sim.spawn_ns", spawn.ns, "ns"},
		{"sim.spawn_allocs", spawn.allocs, "count"},
		{"sim.future_handoff_ns", future.ns, "ns"},
		{"sim.queue_handoff_ns", queue.ns, "ns"},
	}
}

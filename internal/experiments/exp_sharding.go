package experiments

import (
	"bytes"
	"fmt"

	"faaskeeper/internal/core"
	"faaskeeper/internal/fkclient"
	"faaskeeper/internal/sim"
	"faaskeeper/internal/stats"
)

func init() {
	register(Experiment{
		ID:    "sharding",
		Title: "Write scaling with a sharded leader pipeline",
		Ref:   "beyond the paper (ROADMAP: sharding)",
		Run:   runSharding,
	})
}

// shardCounts is the sweep of the write-scaling experiment.
var shardCounts = []int{1, 2, 4, 8}

// shardingRun is one (shard count, workload) measurement.
type shardingRun struct {
	writes     int
	elapsedSec float64
	lat        *stats.Sample
	cost       float64 // dollars across the measured phase
	ok         bool
}

func (r shardingRun) throughput() float64 {
	if r.elapsedSec <= 0 {
		return 0
	}
	return float64(r.writes) / r.elapsedSec
}

// uniformPaths picks one top-level subtree per session such that the
// subtrees spread evenly over 8 shards (and therefore also over 2 and 4,
// since the shard is hash mod n). This is the balanced multi-tenant
// workload sharding is designed for: many independent subtrees.
func uniformPaths(sessions int) []string {
	paths := make([]string, 0, sessions)
	next := 0
	for i := 0; i < sessions; i++ {
		want := i % 8
		for {
			p := fmt.Sprintf("/t%d", next)
			next++
			if core.ShardOf(p, 8) == want {
				paths = append(paths, p)
				break
			}
		}
	}
	return paths
}

// hotPaths puts every session inside one subtree, so every write lands on
// the same shard regardless of the shard count.
func hotPaths(sessions int) []string {
	paths := make([]string, sessions)
	for i := range paths {
		paths[i] = fmt.Sprintf("/hot/n%d", i)
	}
	return paths
}

// runShardingWorkload drives sessions concurrent clients, each issuing ops
// sequential set_data calls against its own node, and measures the
// client-observed latency distribution plus aggregate throughput in
// virtual time.
func runShardingWorkload(seed int64, shards, sessions, ops int, hot bool) shardingRun {
	k := sim.NewKernel(seed)
	d := core.NewDeployment(k, core.Config{WriteShards: shards})
	res := shardingRun{writes: sessions * ops, lat: stats.NewSample(sessions * ops)}
	var paths []string
	if hot {
		paths = hotPaths(sessions)
	} else {
		paths = uniformPaths(sessions)
	}
	var t0, t1 sim.Time
	k.Go("driver", func() {
		setup, err := fkclient.Connect(d, "setup", d.Cfg.Profile.Home)
		if err != nil {
			return
		}
		if hot {
			if _, err := setup.Create("/hot", nil, 0); err != nil {
				return
			}
		}
		for _, p := range paths {
			if _, err := setup.Create(p, nil, 0); err != nil {
				return
			}
		}
		// Warm the follower and leader sandboxes before measuring.
		for i := 0; i < 3; i++ {
			if _, err := setup.SetData(paths[0], []byte("warm"), -1); err != nil {
				return
			}
		}
		clients := make([]*fkclient.Client, sessions)
		for i := range clients {
			c, err := fkclient.Connect(d, fmt.Sprintf("s%d", i), d.Cfg.Profile.Home)
			if err != nil {
				return
			}
			clients[i] = c
		}
		d.ResetMetrics()
		payload := bytes.Repeat([]byte("x"), 128)
		done := sim.NewWaitGroup(k)
		t0 = k.Now()
		for i := range clients {
			done.Go(fmt.Sprintf("writer-%d", i), func() {
				for op := 0; op < ops; op++ {
					ts := k.Now()
					if _, err := clients[i].SetData(paths[i], payload, -1); err != nil {
						return
					}
					res.lat.AddDur(k.Now() - ts)
				}
			})
		}
		done.Wait()
		t1 = k.Now()
		res.cost = d.Env.Meter.Total()
		for _, c := range clients {
			c.Close()
		}
		setup.Close()
		res.ok = res.lat.N() == res.writes
	})
	k.Run()
	k.Shutdown()
	res.elapsedSec = (t1 - t0).Seconds()
	return res
}

func runSharding(cfg RunConfig) *Report {
	r := &Report{
		ID:    "sharding",
		Title: "Sharded leader pipeline: write throughput vs shard count",
		Ref:   "beyond the paper (ROADMAP: sharding)",
	}
	sessions := 16
	ops := cfg.reps(16, 25)
	if !cfg.Quick {
		sessions = 24
	}
	for _, hot := range []bool{false, true} {
		label := "Uniform workload"
		note := "one subtree per session, spread over shards"
		if hot {
			label = "Hot-subtree workload"
			note = "every session inside /hot: all writes on one shard"
		}
		s := r.AddSection(
			fmt.Sprintf("%s (%s; %d sessions × %d writes of 128 B)", label, note, sessions, ops),
			[]string{"shards", "writes/s", "speedup", "p50 ms", "p99 ms", "$/1k writes"})
		var base float64
		for _, n := range shardCounts {
			run := runShardingWorkload(cfg.Seed+int64(n)+boolSeed(hot), n, sessions, ops, hot)
			if !run.ok {
				s.AddRow(fmt.Sprintf("%d", n), "-", "-", "-", "-", "-")
				continue
			}
			tput := run.throughput()
			if n == 1 {
				base = tput
			}
			speedup := "-"
			if base > 0 {
				speedup = fmt.Sprintf("%.2fx", tput/base)
			}
			p50, p99 := latCells(run.lat, f1)
			s.AddRow(fmt.Sprintf("%d", n),
				f1(tput), speedup, p50, p99,
				dollars(run.cost/float64(run.writes)*1000))
		}
	}
	r.Note("Routing hashes the top-level path segment, so a parent and its children always share a shard; the per-shard FIFO order preserves every node-local ZooKeeper invariant.")
	r.Note("The uniform workload scales with the shard count (the single ordered queue and its serialized leader are the bottleneck, Section 5.2.2); the hot subtree pins all writes to one shard and gains nothing — partitioning only helps workloads that spread across subtrees.")
	return r
}

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
		ID:    "batching",
		Title: "Batching distributor: folded user-store writes, leader time, and cost",
		Ref:   "beyond the paper (ROADMAP: distributor batching)",
		Run:   runBatching,
	})
}

// batchingPayloadB is the node size of the batching workloads.
const batchingPayloadB = 128

// hotNodes is how many nodes the hot workload's sessions pile onto: a
// tiny set keeps batches folding deeply while spreading the follower-side
// node-lock contention that would otherwise dominate the cost column.
const hotNodes = 2

// batchingRun is one (configuration, workload) measurement.
type batchingRun struct {
	writes      int
	elapsedSec  float64
	lat         *stats.Sample
	storeWrites int64   // user-store write calls (obj.write ops)
	leaderUpd   float64 // total ms spent in the leader's distribution phase
	cost        float64 // dollars across the measured phase
	viol        int     // per-session ordering violations observed
	ok          bool
}

// dollarsPer1M is the run's metered spend per million writes.
func (r batchingRun) dollarsPer1M() float64 { return r.cost / float64(r.writes) * 1e6 }

func (r batchingRun) throughput() float64 {
	if r.elapsedSec <= 0 {
		return 0
	}
	return float64(r.writes) / r.elapsedSec
}

// batchingWorkload names the three traffic shapes: independent nodes
// (nothing to fold), one shared hot node (set→set folding), and
// create/delete churn under one shared parent (parent-RMW coalescing).
type batchingWorkload string

const (
	wlUniform batchingWorkload = "uniform"
	wlHotNode batchingWorkload = "hotnode"
	wlChurn   batchingWorkload = "churn"
)

// runBatchingWorkload drives sessions concurrent clients for ops
// operations each and measures client latency, aggregate throughput,
// user-store write calls, leader distribution time, and the per-session
// ordering invariants (each response's own mzxid/version strictly
// increasing — a folded write handing out the batch's final stat would
// trip them).
func runBatchingWorkload(seed int64, cfg core.Config, wl batchingWorkload, sessions, ops int) batchingRun {
	cfg.Telemetry = true
	k := sim.NewKernel(seed)
	d := core.NewDeployment(k, cfg)
	res := batchingRun{writes: sessions * ops, lat: stats.NewSample(sessions * ops)}
	var t0, t1 sim.Time
	k.Go("driver", func() {
		setup, err := fkclient.Connect(d, "setup", d.Cfg.Profile.Home)
		if err != nil {
			return
		}
		paths := make([]string, sessions)
		switch wl {
		case wlUniform:
			spread := uniformPaths(sessions)
			for i, p := range spread {
				if _, err := setup.Create(p, nil, 0); err != nil {
					return
				}
				paths[i] = p
			}
		case wlHotNode:
			if _, err := setup.Create("/hot", nil, 0); err != nil {
				return
			}
			for n := 0; n < hotNodes; n++ {
				if _, err := setup.Create(fmt.Sprintf("/hot/n%d", n), nil, 0); err != nil {
					return
				}
			}
			for i := range paths {
				paths[i] = fmt.Sprintf("/hot/n%d", i%hotNodes)
			}
		case wlChurn:
			if _, err := setup.Create("/app", nil, 0); err != nil {
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
		payload := bytes.Repeat([]byte("x"), batchingPayloadB)
		viol := make([]int, sessions)
		done := sim.NewWaitGroup(k)
		t0 = k.Now()
		for i := range clients {
			done.Go(fmt.Sprintf("writer-%d", i), func() {
				var lastMzxid int64
				var lastVersion int32 = -1
				for op := 0; op < ops; op++ {
					ts := k.Now()
					switch wl {
					case wlChurn:
						p := fmt.Sprintf("/app/c%d_%d", i, op)
						if _, err := clients[i].Create(p, payload, 0); err != nil {
							viol[i]++
							continue
						}
						if err := clients[i].Delete(p, -1); err != nil {
							viol[i]++
						}
					default:
						st, err := clients[i].SetData(paths[i], payload, -1)
						if err != nil {
							viol[i]++
							continue
						}
						// Each op must carry its own stamps: strictly newer
						// than this session's previous write to the node.
						if st.Mzxid <= lastMzxid || st.Version <= lastVersion {
							viol[i]++
						}
						lastMzxid, lastVersion = st.Mzxid, st.Version
					}
					res.lat.AddDur(k.Now() - ts)
				}
			})
		}
		done.Wait()
		t1 = k.Now()
		res.cost = d.Env.Meter.Total()
		res.storeWrites = d.Env.Meter.Count("obj.write")
		if s := d.Phase("leader.update"); s != nil {
			res.leaderUpd = s.Mean() * float64(s.N())
		}
		for i, c := range clients {
			res.viol += viol[i]
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

func runBatching(cfg RunConfig) *Report {
	r := &Report{
		ID:    "batching",
		Title: "Batching distributor: folded user-store writes, leader time, and cost",
		Ref:   "beyond the paper (ROADMAP: distributor batching)",
	}
	sessions := 12
	ops := cfg.reps(8, 30)
	if !cfg.Quick {
		sessions = 16
	}

	type variant struct {
		label string
		cc    core.Config
	}
	workloads := []struct {
		wl       batchingWorkload
		caption  string
		variants []variant
	}{
		{wlUniform,
			fmt.Sprintf("Uniform workload (one node per session; %d sessions × %d set_data of %d B)", sessions, ops, batchingPayloadB),
			[]variant{
				{"per-message (paper)", core.Config{}},
				{"batched distributor", core.Config{BatchWrites: true}},
				{"batched + 4 shards", core.Config{BatchWrites: true, WriteShards: 4}},
			}},
		{wlHotNode,
			fmt.Sprintf("Hot-node workload (%d sessions piled onto %d nodes; %d set_data each)", sessions, hotNodes, ops),
			[]variant{
				{"per-message (paper)", core.Config{}},
				{"batched distributor", core.Config{BatchWrites: true}},
			}},
		{wlChurn,
			fmt.Sprintf("Hot-parent churn (create+delete under one parent; %d sessions × %d pairs)", sessions, ops),
			[]variant{
				{"per-message (paper)", core.Config{}},
				{"batched distributor", core.Config{BatchWrites: true}},
			}},
	}

	var hotOff, hotOn batchingRun
	for wi, w := range workloads {
		s := r.AddSection(w.caption,
			[]string{"configuration", "writes/s", "speedup", "store wr/op", "leader upd ms/op", "p50 ms", "p99 ms", "$/1M writes", "viol"})
		var base float64
		for vi, v := range w.variants {
			run := runBatchingWorkload(cfg.Seed+int64(wi*10+vi), v.cc, w.wl, sessions, ops)
			if !run.ok {
				s.AddRow(v.label, "-", "-", "-", "-", "-", "-", "-", "-")
				continue
			}
			tput := run.throughput()
			if vi == 0 {
				base = tput
			}
			speedup := "-"
			if base > 0 {
				speedup = fmt.Sprintf("%.2fx", tput/base)
			}
			if w.wl == wlHotNode {
				if vi == 0 {
					hotOff = run
				} else {
					hotOn = run
				}
			}
			p50, p99 := latCells(run.lat, f1)
			s.AddRow(v.label,
				f1(tput), speedup,
				f2(float64(run.storeWrites)/float64(run.writes)),
				f2(run.leaderUpd/float64(run.writes)),
				p50, p99,
				dollars(run.dollarsPer1M()),
				fmt.Sprintf("%d", run.viol))
		}
	}

	if hotOff.ok && hotOn.ok && hotOn.storeWrites > 0 {
		r.Note("Hot node: the distributor folds %d queued writes into %d user-store writes (%.1fx fewer calls) at zero ordering violations — every response still carries its own txid and version.",
			hotOff.storeWrites, hotOn.storeWrites,
			float64(hotOff.storeWrites)/float64(hotOn.storeWrites))
		r.Note("Cost (metered): on the hot node the batched distributor spends %s per 1M writes against %s per-message (%.0f%% saved).",
			dollars(hotOn.dollarsPer1M()), dollars(hotOff.dollarsPer1M()),
			(1-hotOn.dollarsPer1M()/hotOff.dollarsPer1M())*100)
	}
	r.Note("Uniform traffic has nothing to fold (distinct nodes per batch), so batching only trims the per-batch overheads; the wins concentrate on hot nodes (set→set folding) and shared parents (one child-list RMW per batch instead of one per create/delete).")
	return r
}

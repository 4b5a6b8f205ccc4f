package experiments

import (
	"fmt"

	"faaskeeper/internal/cloud"
	"faaskeeper/internal/core"
	"faaskeeper/internal/costmodel"
	"faaskeeper/internal/fkclient"
	"faaskeeper/internal/sim"
	"faaskeeper/internal/stats"
	"faaskeeper/internal/txn"
	"faaskeeper/internal/zk"
)

func init() {
	register(Experiment{
		ID:    "txn",
		Title: "Cross-shard multi() transactions: commit latency, cost, and abort rate vs participants",
		Ref:   "beyond the paper (ROADMAP: cross-shard multi-op transactions)",
		Run:   runTxn,
	})
}

// txnPayloadB sizes each sub-op's data.
const txnPayloadB = 128

// txnShardPaths returns count top-level paths whose shards cycle through
// the residues 0..n-1, so a k-op multi over paths[i*k:(i+1)*k] spans
// exactly min(k, n) shards.
func txnShardPaths(n, count int) []string {
	paths := make([]string, 0, count)
	next := 0
	for len(paths) < count {
		p := fmt.Sprintf("/t%d", next)
		next++
		if core.ShardOf(p, n) == len(paths)%n {
			paths = append(paths, p)
		}
	}
	return paths
}

// txnRun is one commit-latency measurement.
type txnRun struct {
	txns    int
	lat     *stats.Sample
	elapsed float64
	cost    float64
	aborts  int
	ok      bool
}

func (r txnRun) throughput() float64 {
	if r.elapsed <= 0 {
		return 0
	}
	return float64(r.txns) / r.elapsed
}

// runTxnLatency drives sessions concurrent clients, each committing ops
// multis of spread sub-ops over its own per-shard path set (conflict-free:
// the numbers isolate coordination cost, not lock contention).
func runTxnLatency(seed int64, shards, spread, sessions, ops int) txnRun {
	cfg := core.Config{WriteShards: shards, UserStore: core.StoreKV}
	k := sim.NewKernel(seed)
	d := core.NewDeployment(k, cfg)
	res := txnRun{txns: sessions * ops, lat: stats.NewSample(sessions * ops)}
	var t0, t1 sim.Time
	k.Go("driver", func() {
		setup, err := fkclient.Connect(d, "setup", d.Cfg.Profile.Home)
		if err != nil {
			return
		}
		paths := txnShardPaths(shards, sessions*spread)
		for _, p := range paths {
			if _, err := setup.Create(p, nil, 0); err != nil {
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
		payload := make([]byte, txnPayloadB)
		done := sim.NewWaitGroup(k)
		t0 = k.Now()
		for i := range clients {
			i := i
			mine := paths[i*spread : (i+1)*spread]
			done.Add(1)
			k.Go(fmt.Sprintf("txw%d", i), func() {
				defer done.Done()
				for op := 0; op < ops; op++ {
					subs := make([]txn.Op, 0, spread)
					for _, p := range mine {
						subs = append(subs, txn.SetData(p, payload, int32(op)))
					}
					ts := k.Now()
					if _, err := clients[i].Multi(subs...); err != nil {
						res.aborts++
						continue
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
		res.ok = res.lat.N() == res.txns && res.aborts == 0
	})
	k.Run()
	k.Shutdown()
	res.elapsed = (t1 - t0).Seconds()
	return res
}

// runTxnContention races version-guarded cross-shard multis from several
// sessions over ONE shared path pair: losers abort on the version check
// (or on intent contention) and the final version counts exactly the
// winners — the all-or-nothing bookkeeping the abort-rate column reports.
func runTxnContention(seed int64, shards, sessions, rounds int) (commits, aborts int, lost bool) {
	cfg := core.Config{WriteShards: shards, UserStore: core.StoreKV}
	k := sim.NewKernel(seed)
	d := core.NewDeployment(k, cfg)
	var finalA, finalB int32
	k.Go("driver", func() {
		setup, err := fkclient.Connect(d, "setup", d.Cfg.Profile.Home)
		if err != nil {
			return
		}
		paths := txnShardPaths(shards, 2)
		for _, p := range paths {
			if _, err := setup.Create(p, nil, 0); err != nil {
				return
			}
		}
		done := sim.NewWaitGroup(k)
		for i := 0; i < sessions; i++ {
			i := i
			done.Add(1)
			k.Go(fmt.Sprintf("c%d", i), func() {
				defer done.Done()
				c, err := fkclient.Connect(d, fmt.Sprintf("c%d", i), d.Cfg.Profile.Home)
				if err != nil {
					return
				}
				defer c.Close()
				for r := 0; r < rounds; r++ {
					_, st, err := c.GetData(paths[0])
					if err != nil {
						return
					}
					_, err = c.Multi(
						txn.SetData(paths[0], []byte{byte(i)}, st.Version),
						txn.SetData(paths[1], []byte{byte(i)}, st.Version),
					)
					if err == nil {
						commits++
					} else {
						aborts++
					}
					k.Sleep(sim.Ms(3))
				}
			})
		}
		done.Wait()
		if _, st, err := setup.GetData(paths[0]); err == nil {
			finalA = st.Version
		}
		if _, st, err := setup.GetData(paths[1]); err == nil {
			finalB = st.Version
		}
		setup.Close()
	})
	k.Run()
	k.Shutdown()
	// Atomicity check: both paths advanced exactly once per commit.
	lost = int(finalA) != commits || int(finalB) != commits
	return commits, aborts, lost
}

// runZKMultiBaseline times the baseline ensemble's native multi.
func runZKMultiBaseline(seed int64, spread, ops int) *stats.Sample {
	k := sim.NewKernel(seed)
	env := cloud.NewEnv(k, cloud.AWSProfile())
	e := zk.NewEnsemble(env, zk.Config{Servers: 3})
	lat := stats.NewSample(ops)
	k.Go("driver", func() {
		c, err := zk.Connect(e, 1)
		if err != nil {
			return
		}
		defer c.Close()
		paths := make([]string, spread)
		for i := range paths {
			paths[i] = fmt.Sprintf("/t%d", i)
			if _, err := c.Create(paths[i], nil, 0); err != nil {
				return
			}
		}
		payload := make([]byte, txnPayloadB)
		for op := 0; op < ops; op++ {
			subs := make([]zk.MultiOp, 0, spread)
			for _, p := range paths {
				subs = append(subs, zk.MultiOp{Op: zk.OpSetData, Path: p, Data: payload, Version: int32(op)})
			}
			ts := k.Now()
			if _, err := c.Multi(subs...); err != nil {
				return
			}
			lat.AddDur(k.Now() - ts)
		}
	})
	k.RunFor(sim.Ms(1000) * 600)
	k.Shutdown()
	return lat
}

func runTxn(cfg RunConfig) *Report {
	r := &Report{
		ID:    "txn",
		Title: "Cross-shard multi() transactions: commit latency, cost, and abort rate vs participants",
		Ref:   "beyond the paper (ROADMAP: cross-shard multi-op transactions)",
	}
	sessions := cfg.reps(4, 8)
	ops := cfg.reps(6, 20)
	const shards = 4

	m := costmodel.NewAWSModel(2048)
	s := r.AddSection(
		fmt.Sprintf("Commit latency vs participant shards (WriteShards=%d, %d sessions × %d multis, %d B/op, conflict-free)",
			shards, sessions, ops, txnPayloadB),
		[]string{"participants", "path", "txn/s", "p50 ms", "p99 ms", "$/txn", "model $/txn", "overhead vs single ops"})
	for vi, spread := range []int{1, 2, 4} {
		run := runTxnLatency(cfg.Seed+int64(vi), shards, spread, sessions, ops)
		if !run.ok {
			s.AddRow(fmt.Sprintf("%d", spread), "-", "-", "-", "-", "-", "-", "-")
			continue
		}
		path := "2PC"
		if spread == 1 {
			path = "fast path"
		}
		p50, p99 := latCells(run.lat, f1)
		s.AddRow(fmt.Sprintf("%d", spread), path,
			f1(run.throughput()),
			p50, p99,
			fmt.Sprintf("$%.6f", run.cost/float64(run.txns)),
			fmt.Sprintf("$%.6f", m.TxnCost(spread, spread, txnPayloadB, false)),
			fmt.Sprintf("%.2fx", m.TxnOverhead(spread, spread, txnPayloadB, false)))
	}
	zkLat := runZKMultiBaseline(cfg.Seed+11, 2, ops)
	if zkLat.N() > 0 {
		p50, p99 := latCells(zkLat, f1)
		s.AddRow("2 (zk baseline)", "ZAB multi", "-", p50, p99, "-", "-", "-")
	}

	s2 := r.AddSection(
		fmt.Sprintf("Abort rate under contention (version-guarded multis racing on one cross-shard pair, %d sessions)", sessions),
		[]string{"shards", "commits", "aborts", "abort rate", "partial commits"})
	for vi, sh := range []int{2, 4} {
		commits, aborts, lost := runTxnContention(cfg.Seed+20+int64(vi), sh, sessions, cfg.reps(4, 10))
		total := commits + aborts
		rate := "-"
		if total > 0 {
			rate = fmt.Sprintf("%.0f%%", 100*float64(aborts)/float64(total))
		}
		partial := "0"
		if lost {
			partial = "VIOLATION"
		}
		s2.AddRow(fmt.Sprintf("%d", sh), fmt.Sprintf("%d", commits), fmt.Sprintf("%d", aborts), rate, partial)
	}

	r.Note("The fast path (one participant shard) pays no coordinator machinery: one leader message and one multi-item system-store transaction; a WriteShards=1 deployment always takes it.")
	r.Note("Cross-shard commits pay the two-phase protocol — intents + storage-backed votes, per-shard commit messages, a ready barrier, then one atomic user-store apply — so latency grows with the slowest participant, not with the op count.")
	r.Note("Contention resolves through version guards and intent fencing: losers abort cleanly (the final versions count exactly the winners — the 'partial commits' column must stay 0).")
	return r
}

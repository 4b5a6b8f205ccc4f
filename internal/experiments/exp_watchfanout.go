package experiments

import (
	"bytes"
	"fmt"

	"faaskeeper/internal/cloud"
	"faaskeeper/internal/core"
	"faaskeeper/internal/costmodel"
	"faaskeeper/internal/fkclient"
	"faaskeeper/internal/sim"
	"faaskeeper/internal/watchfanout"
)

func init() {
	register(Experiment{
		ID:    "watchfanout",
		Title: "Hierarchical watch fan-out: O(1) leader-side notification cost",
		Ref:   "beyond the paper (ROADMAP: watch fan-out)",
		Run:   runWatchFanout,
	})
}

// fanoutPayloadB is the node size of the fan-out workloads.
const fanoutPayloadB = 128

// fanoutSweep is one watcher-count measurement of the hot-path workload:
// a writer updates one path carrying `watchers` persistent watches (one
// real session plus a synthetic population on the regional node).
type fanoutSweep struct {
	watchers   int
	writes     int
	sysOps     float64 // leader system-store ops per write
	publishes  float64 // notification records per write
	enters     float64 // shard-epoch appends per write
	deliveries int64   // node-side session deliveries
	usd        float64 // leader-side dollars for the write phase
	ok         bool
}

// runFanoutSweep measures leader-side work at one watcher count. Writes
// are spaced past the delivery drain so every write re-enters the epoch
// — the worst case for leader-side epoch traffic.
func runFanoutSweep(seed int64, watchers, writes int) fanoutSweep {
	k := sim.NewKernel(seed)
	d := core.NewDeployment(k, core.Config{
		Profile: cloud.AWSProfile(), UserStore: core.StoreKV,
		WatchFanout: true, CostAccounting: true,
	})
	res := fanoutSweep{watchers: watchers, writes: writes}
	k.Go("driver", func() {
		payload := bytes.Repeat([]byte("x"), fanoutPayloadB)
		w, err := fkclient.Connect(d, "writer", d.Cfg.Profile.Home)
		if err != nil {
			return
		}
		if _, err := w.Create("/hot", payload, 0); err != nil {
			return
		}
		watcher, err := fkclient.Connect(d, "watcher", d.Cfg.Profile.Home)
		if err != nil {
			return
		}
		if _, err := watcher.AddWatch("/hot", fkclient.WatchOptions{}, nil); err != nil {
			return
		}
		// The rest of the population is synthetic: the node counts and
		// bills their deliveries without materializing sessions.
		node := d.FanoutFor(d.Cfg.Profile.Home)
		node.BulkRegister("/hot", watchfanout.KindPersistent, watchfanout.PolicyImmediate, 0,
			core.WatchID("/hot", core.WatchPersistent), watchers-1)
		d.ResetMetrics()
		st0 := node.Stats()
		m := d.Env.Meter
		ops0 := m.Count("syskv.read") + m.Count("syskv.write")
		usd0 := m.Cost("syskv.read") + m.Cost("syskv.write") + m.Cost("fanout.publish")
		for i := 0; i < writes; i++ {
			if _, err := w.SetData("/hot", payload, -1); err != nil {
				return
			}
			k.Sleep(sim.Ms(400)) // drain the delivery so the epoch fully cycles
		}
		k.Sleep(sim.Ms(2000))
		st1 := node.Stats()
		n := float64(writes)
		res.sysOps = float64(m.Count("syskv.read")+m.Count("syskv.write")-ops0) / n
		res.usd = m.Cost("syskv.read") + m.Cost("syskv.write") + m.Cost("fanout.publish") - usd0
		res.publishes = float64(st1.Publishes-st0.Publishes) / n
		res.enters = float64(st1.EpochEnters-st0.EpochEnters) / n
		res.deliveries = st1.Deliveries - st0.Deliveries
		res.ok = res.deliveries > 0
		watcher.Close()
		w.Close()
	})
	k.Run()
	k.Shutdown()
	return res
}

// runFanoutBurst measures node-side deliveries for a confd-style burst:
// `watchers` interval-policy watchers on one config path, `writes`
// back-to-back overwrites. With coalescing the node collapses the burst
// to one delivery per subscriber per window.
func runFanoutBurst(seed int64, watchers, writes int, policy watchfanout.Policy, interval sim.Time) (deliveries, suppressed int64, ok bool) {
	k := sim.NewKernel(seed)
	d := core.NewDeployment(k, core.Config{
		Profile: cloud.AWSProfile(), UserStore: core.StoreKV, WatchFanout: true,
	})
	k.Go("driver", func() {
		payload := bytes.Repeat([]byte("x"), fanoutPayloadB)
		w, err := fkclient.Connect(d, "writer", d.Cfg.Profile.Home)
		if err != nil {
			return
		}
		if _, err := w.Create("/cfg", payload, 0); err != nil {
			return
		}
		watcher, err := fkclient.Connect(d, "watcher", d.Cfg.Profile.Home)
		if err != nil {
			return
		}
		opts := fkclient.WatchOptions{Policy: policy, Interval: interval}
		if _, err := watcher.AddWatch("/cfg", opts, nil); err != nil {
			return
		}
		node := d.FanoutFor(d.Cfg.Profile.Home)
		node.BulkRegister("/cfg", watchfanout.KindPersistent, policy, interval,
			core.WatchID("/cfg", core.WatchPersistent), watchers-1)
		for i := 0; i < writes; i++ {
			if _, err := w.SetData("/cfg", payload, -1); err != nil {
				return
			}
		}
		k.Sleep(2*interval + sim.Ms(5000))
		st := node.Stats()
		deliveries, suppressed, ok = st.Deliveries, st.Suppressed, true
		watcher.Close()
		w.Close()
	})
	k.Run()
	k.Shutdown()
	return deliveries, suppressed, ok
}

// runFanoutLegacyCompare drives the same small one-shot workload through
// the legacy leader-side watch query and the fan-out tier, returning
// leader system-store ops per write for each.
func runFanoutLegacyCompare(seed int64, fanout bool, sessions, writes int) (sysOps float64, ok bool) {
	k := sim.NewKernel(seed)
	d := core.NewDeployment(k, core.Config{
		Profile: cloud.AWSProfile(), UserStore: core.StoreKV, WatchFanout: fanout,
	})
	k.Go("driver", func() {
		payload := bytes.Repeat([]byte("x"), fanoutPayloadB)
		w, err := fkclient.Connect(d, "writer", d.Cfg.Profile.Home)
		if err != nil {
			return
		}
		if _, err := w.Create("/n", payload, 0); err != nil {
			return
		}
		clients := make([]*fkclient.Client, sessions)
		for i := range clients {
			c, err := fkclient.Connect(d, fmt.Sprintf("w%d", i), d.Cfg.Profile.Home)
			if err != nil {
				return
			}
			clients[i] = c
		}
		d.ResetMetrics()
		m := d.Env.Meter
		ops0 := m.Count("syskv.read") + m.Count("syskv.write")
		for i := 0; i < writes; i++ {
			// One-shot watches re-arm before every write, the paper's
			// usage pattern.
			for _, c := range clients {
				if _, _, err := c.GetDataW("/n", func(core.Notification) {}); err != nil {
					return
				}
			}
			if _, err := w.SetData("/n", payload, -1); err != nil {
				return
			}
			k.Sleep(sim.Ms(500))
		}
		k.Sleep(sim.Ms(2000))
		sysOps = float64(m.Count("syskv.read")+m.Count("syskv.write")-ops0) / float64(writes)
		ok = true
		for _, c := range clients {
			c.Close()
		}
		w.Close()
	})
	k.Run()
	k.Shutdown()
	return sysOps, ok
}

// RunWatchFanoutAt runs the hot-path sweep at one watcher count and
// renders it — the fkcli -watchers entry point.
func RunWatchFanoutAt(seed int64, watchers int) *Report {
	r := &Report{
		ID:    "watchfanout",
		Title: "Hierarchical watch fan-out: O(1) leader-side notification cost",
		Ref:   "beyond the paper (ROADMAP: watch fan-out)",
	}
	s := r.AddSection(fmt.Sprintf("Hot path, %d persistent watchers", watchers),
		fanoutSweepColumns)
	run := runFanoutSweep(seed, watchers, 10)
	s.AddRow(fanoutSweepRow(run)...)
	return r
}

var fanoutSweepColumns = []string{
	"watchers", "syskv ops/write", "records/write", "epoch enters/write",
	"node deliveries", "leader $/1M notif",
}

func fanoutSweepRow(run fanoutSweep) []string {
	if !run.ok {
		return []string{fmt.Sprintf("%d", run.watchers), "-", "-", "-", "-", "-"}
	}
	usdPer1M := run.usd / float64(run.deliveries) * 1e6
	return []string{
		fmt.Sprintf("%d", run.watchers),
		f1(run.sysOps), f1(run.publishes), f1(run.enters),
		fmt.Sprintf("%d", run.deliveries), dollars(usdPer1M),
	}
}

func runWatchFanout(cfg RunConfig) *Report {
	r := &Report{
		ID:    "watchfanout",
		Title: "Hierarchical watch fan-out: O(1) leader-side notification cost",
		Ref:   "beyond the paper (ROADMAP: watch fan-out)",
	}
	writes := cfg.reps(5, 20)

	// A: leader-side work must stay flat from 10k to 1M watchers — the
	// leader publishes one notification record per (path, txid) and
	// touches the shard epoch list once, regardless of the population.
	s := r.AddSection(
		fmt.Sprintf("Leader-side work vs watcher count (%d writes of %d B to one hot path)",
			writes, fanoutPayloadB),
		fanoutSweepColumns)
	// Every row runs the same seeded workload, so the watcher count is the
	// only thing that differs: a leader's first poll missing its follower's
	// commit (one extra read, a race of the seed) cannot pass for population
	// cost.
	var first, last fanoutSweep
	for i, watchers := range []int{10_000, 100_000, 1_000_000} {
		run := runFanoutSweep(cfg.Seed, watchers, writes)
		if i == 0 {
			first = run
		}
		last = run
		s.AddRow(fanoutSweepRow(run)...)
	}
	if first.ok && last.ok {
		r.Note("Leader work is flat: %.1f system-store ops and %.1f notification records per write at 10k watchers vs %.1f and %.1f at 1M — the 100x population shows up only in node-side deliveries (%d vs %d).",
			first.sysOps, first.publishes, last.sysOps, last.publishes,
			first.deliveries, last.deliveries)
	}

	// B: confd-style config burst — interval coalescing collapses the
	// node-side fan-out of a write burst to roughly one delivery per
	// subscriber per window.
	burstWatchers := 100_000
	burstWrites := cfg.reps(12, 30)
	s2 := r.AddSection(
		fmt.Sprintf("confd burst: %d interval watchers, %d back-to-back overwrites",
			burstWatchers, burstWrites),
		[]string{"policy", "node deliveries", "suppressed", "vs immediate"})
	immDel, _, immOK := runFanoutBurst(cfg.Seed+501, burstWatchers, burstWrites,
		watchfanout.PolicyImmediate, 0)
	coalDel, coalSup, coalOK := runFanoutBurst(cfg.Seed+502, burstWatchers, burstWrites,
		watchfanout.PolicyInterval, sim.Ms(10_000))
	if immOK {
		s2.AddRow("immediate", fmt.Sprintf("%d", immDel), "0", "1.0x")
	} else {
		s2.AddRow("immediate", "-", "-", "-")
	}
	if coalOK && coalDel > 0 {
		s2.AddRow("interval 10s", fmt.Sprintf("%d", coalDel), fmt.Sprintf("%d", coalSup),
			fmt.Sprintf("%.1fx fewer", float64(immDel)/float64(coalDel)))
	} else {
		s2.AddRow("interval 10s", "-", "-", "-")
	}

	// C: the fan-out tier vs the paper's leader-side watch query on the
	// same small real-session workload.
	sessions := 8
	cmpWrites := cfg.reps(3, 8)
	s3 := r.AddSection(
		fmt.Sprintf("Leader system-store ops per write, %d one-shot watchers (real sessions)", sessions),
		[]string{"mode", "syskv ops/write"})
	legacyOps, legacyOK := runFanoutLegacyCompare(cfg.Seed+601, false, sessions, cmpWrites)
	fanoutOps, fanoutOK := runFanoutLegacyCompare(cfg.Seed+602, true, sessions, cmpWrites)
	if legacyOK {
		s3.AddRow("legacy watch query", f1(legacyOps))
	} else {
		s3.AddRow("legacy watch query", "-")
	}
	if fanoutOK {
		s3.AddRow("fan-out tier", f1(fanoutOps))
	} else {
		s3.AddRow("fan-out tier", "-")
	}

	m := costmodel.NewAWSModel(512)
	r.Note("Analytic model: a legacy watch query at 1M watchers costs %s in leader-side storage per firing vs %s for one notification record — one fan-out node breaks even above %.0f firings/day.",
		dollars(m.LegacyWatchQueryCost(1_000_000)), dollars(m.FanoutPublishCost()),
		m.FanoutBreakEvenFirings(1_000_000, 1))
	r.Note("Delivery guarantees are unchanged: the epoch-stamp gate holds reads until a covering notification lands (Z4), and coalescing only ever suppresses a firing whose txid is at most the delivered one.")
	return r
}

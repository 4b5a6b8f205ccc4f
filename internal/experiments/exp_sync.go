package experiments

import (
	"fmt"
	"time"

	"faaskeeper/internal/cloud"
	"faaskeeper/internal/cloud/kv"
	"faaskeeper/internal/fksync"
	"faaskeeper/internal/sim"
	"faaskeeper/internal/stats"
)

func init() {
	register(Experiment{
		ID:    "tab6a",
		Title: "Latency of synchronization primitives on the key-value store",
		Ref:   "Table 6a (Figure 6a)",
		Run:   runTab6a,
	})
	register(Experiment{
		ID:    "fig6b",
		Title: "Throughput of standard and locked key-value updates",
		Ref:   "Figure 6b",
		Run:   runFig6b,
	})
}

func runTab6a(cfg RunConfig) *Report {
	r := &Report{ID: "tab6a", Title: "Synchronization primitive latency", Ref: "Table 6a"}
	k := sim.NewKernel(cfg.Seed)
	env := cloud.NewEnv(k, cloud.AWSProfile())
	tbl := kv.NewTable(env, "system")
	locks := fksync.NewLockManager(env, tbl, time.Second)
	ctr := fksync.NewCounter(tbl, "ctr", "v")
	lst := fksync.NewList(tbl, "lst", "w")
	ctx := cloud.ClientCtx(cloud.RegionAWSHome)
	reps := cfg.reps(150, 1000)

	s := r.AddSection("Latency in ms over warmed-up data",
		[]string{"Primitive", "Size", "Min", "p50", "p95", "p99", "Max"})

	measure := func(fn func()) stats.Summary {
		sample := stats.NewSample(reps)
		for i := 0; i < reps; i++ {
			t0 := k.Now()
			fn()
			sample.AddDur(k.Now() - t0)
		}
		return sample.Summarize()
	}

	k.Go("bench", func() {
		for _, size := range []int{1024, 64 * 1024} {
			item := kv.Item{{Name: "d", V: kv.B(make([]byte, size))}}
			tbl.Put(ctx, "node", item, nil)
			w := measure(func() {
				tbl.Update(ctx, "node", []kv.Update{kv.Set{Name: "x", V: kv.N(1)}}, nil)
			})
			s.AddRow(sumRow("Regular DynamoDB write", sizeLabel(size), w)...)
			acqS := stats.NewSample(reps)
			relS := stats.NewSample(reps)
			for i := 0; i < reps; i++ {
				t0 := k.Now()
				l, _, err := locks.Acquire(ctx, "node")
				acqS.AddDur(k.Now() - t0)
				if err != nil {
					continue
				}
				t0 = k.Now()
				locks.Release(ctx, l)
				relS.AddDur(k.Now() - t0)
			}
			s.AddRow(sumRow("Timed lock acquire", sizeLabel(size), acqS.Summarize())...)
			s.AddRow(sumRow("Timed lock release", sizeLabel(size), relS.Summarize())...)
		}
		c := measure(func() { ctr.Add(ctx, 1) })
		s.AddRow(sumRow("Atomic counter", "8", c)...)
		// Append to a fresh item each repetition so the measured cost is
		// the append itself, not the accumulated item size.
		i := 0
		one := measure(func() {
			i++
			fksync.NewList(tbl, fmt.Sprintf("lst1-%d", i), "w").Append(ctx, 7)
		})
		s.AddRow(sumRow("Atomic list append", "1", one)...)
		big := make([]int64, 1024*128) // 1024 appended entries of 1 kB each
		bigApp := measure(func() {
			i++
			fksync.NewList(tbl, fmt.Sprintf("lstN-%d", i), "w").Append(ctx, big...)
		})
		s.AddRow(sumRow("Atomic list append", "1024x1kB", bigApp)...)
		_ = lst
	})
	k.Run()
	k.Shutdown()
	r.Note("Paper medians: regular write 4.35/66.31 ms (1/64 kB); lock acquire 6.8/67.16 ms; counter 5.59 ms; list append 5.89/76.01 ms.")
	r.Note("The conditional update surcharge (~2.5 ms median) and the item-size penalty on locks motivate separating system and user storage.")
	return r
}

func runFig6b(cfg RunConfig) *Report {
	r := &Report{ID: "fig6b", Title: "Locked vs standard update throughput", Ref: "Figure 6b"}
	s := r.AddSection("Median processed op/s over 1 s windows (10 clients, 5 s run)",
		[]string{"offered op/s", "standard p50", "standard p99", "locked p50", "locked p99"})
	offered := []int{100, 200, 400, 600, 800, 1000, 1200}
	if cfg.Quick {
		offered = []int{100, 400, 800, 1200}
	}
	var effAtPeak float64
	for _, rate := range offered {
		std := throughputRun(cfg.Seed, rate, false)
		lck := throughputRun(cfg.Seed+1, rate, true)
		s.AddRow(fmt.Sprintf("%d", rate),
			f1(std.p50), f1(std.p99), f1(lck.p50), f1(lck.p99))
		if rate == offered[len(offered)-1] && std.p50 > 0 {
			effAtPeak = lck.p50 / std.p50
		}
	}
	r.Note("Locking efficiency at the highest load: %.0f%% of standard update throughput (paper: 84%%).", effAtPeak*100)
	r.Note("Table capacity admits ~1430 standard read+write pairs per second; conditional (locked) updates consume 1.4x capacity each, so locked pairs saturate near 1000/s — the paper's 'up to 1200 requests per second'.")
	return r
}

type ratePair struct{ p50, p99 float64 }

// throughputRun offers `rate` operation pairs/s from 10 clients for 5
// seconds and reports the processed-rate distribution. Following the
// paper, the standard variant issues a read+write pair and the locked
// variant an acquire+commit pair; both pairs contend for the same table
// capacity, which is what makes the locked version land at ~84%.
func throughputRun(seed int64, rate int, locked bool) ratePair {
	k := sim.NewKernel(seed)
	env := cloud.NewEnv(k, cloud.AWSProfile())
	tbl := kv.NewTable(env, "bench")
	// DynamoDB admits ~2860 request units/s on this table; conditional
	// updates cost 1.4 units, capping locked pairs at ~1000/s — the "up to
	// 1200 requests per second" and 84% efficiency the paper reports.
	tbl.SetWriteCapacity(2860, 1.4)
	locks := fksync.NewLockManager(env, tbl, time.Second)
	ctx := cloud.ClientCtx(cloud.RegionAWSHome)
	counter := stats.NewCounter(time.Second)

	// Open-loop issue from 10 client processes: each submission runs in
	// its own process, so throughput is bounded by the store, not by the
	// submitters' round-trip latency.
	clients := 10
	perClient := rate / clients
	if perClient == 0 {
		perClient = 1
	}
	for c := 0; c < clients; c++ {
		c := c
		name := fmt.Sprintf("client-%d", c)
		k.Go(name, func() {
			interval := time.Second / time.Duration(perClient)
			i := 0
			for k.Now() < 5*time.Second {
				// Spread each client's updates over its own pool of 128 items
				// so independent transactions never contend on one lock
				// (the paper's "independent updates" setting).
				key := fmt.Sprintf("item-%d-%d", c, i%128)
				i++
				k.Go(name+"-op", func() {
					if locked {
						l, _, err := locks.Acquire(ctx, key)
						if err != nil {
							return // collision: not a processed request
						}
						if _, err := locks.CommitUnlock(ctx, l,
							[]kv.Update{kv.Add{Name: "v", Delta: 1}}); err != nil {
							return
						}
					} else {
						tbl.Get(ctx, key, true)
						if _, err := tbl.Update(ctx, key,
							[]kv.Update{kv.Add{Name: "v", Delta: 1}}, nil); err != nil {
							return
						}
					}
					counter.Tick(k.Now())
				})
				k.Sleep(interval)
			}
		})
	}
	k.RunUntil(8 * time.Second)
	k.Shutdown()
	rates := counter.Rates()
	s := stats.NewSample(len(rates))
	for _, v := range rates {
		s.Add(v)
	}
	return ratePair{p50: s.Percentile(50), p99: s.Percentile(99)}
}

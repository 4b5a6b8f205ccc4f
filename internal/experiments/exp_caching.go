package experiments

import (
	"bytes"
	"fmt"
	"math/rand"

	"faaskeeper/internal/core"
	"faaskeeper/internal/fkclient"
	"faaskeeper/internal/sim"
	"faaskeeper/internal/stats"
	"faaskeeper/internal/ycsb"
)

func init() {
	register(Experiment{
		ID:    "caching",
		Title: "Read-path cache tier: hit ratio, latency, and cost",
		Ref:   "beyond the paper (ROADMAP: caching)",
		Run:   runCaching,
	})
}

// cachingPayloadB is the node size of the caching workload.
const cachingPayloadB = 256

// cachingRun is one configuration's measurement.
type cachingRun struct {
	reads   int
	lat     *stats.Sample
	l1Hits  int64
	l2Hits  int64
	misses  int64
	z3Viol  int
	readUSD float64 // metered read-side dollars of the read phase
	ok      bool
}

// readSideCategories are the meter categories a read pays: the KV user
// store's reads and the cache node's VM time, which accrues per cache
// operation under cost accounting.
var readSideCategories = []string{"userkv.read", "cache.vm"}

// dollarsPer1M is the run's metered read-side cost per million reads.
func (r cachingRun) dollarsPer1M() float64 {
	return r.readUSD / float64(r.reads) * 1e6
}

// hitRatio is the client-observed share of reads served by either cache
// level (0 with the tier off).
func (r cachingRun) hitRatio() float64 {
	total := r.l1Hits + r.l2Hits + r.misses
	if total == 0 {
		return 0
	}
	return float64(r.l1Hits+r.l2Hits) / float64(total)
}

// runCachingWorkload drives the Zipf(0.99) read-heavy workload: `readers`
// sessions issue zipf-chosen get_data calls against a flat node set while
// one writer session keeps overwriting zipf-chosen nodes, so the leader's
// installs and the cache's fill/floor races actually exercise.
// Each reader checks Z3 inline: a node's observed mzxid must never regress
// within the session. Cost accounting is on so the cache VM accrues on the
// meter.
func runCachingWorkload(seed int64, cfg core.Config, readers, readsPer, nodeCount int) cachingRun {
	cfg.CostAccounting = true
	k := sim.NewKernel(seed)
	d := core.NewDeployment(k, cfg)
	res := cachingRun{reads: readers * readsPer, lat: stats.NewSample(readers * readsPer)}
	paths := make([]string, nodeCount)
	for i := range paths {
		paths[i] = fmt.Sprintf("/app/n%d", i)
	}
	k.Go("driver", func() {
		setup, err := fkclient.Connect(d, "setup", d.Cfg.Profile.Home)
		if err != nil {
			return
		}
		payload := bytes.Repeat([]byte("x"), cachingPayloadB)
		if _, err := setup.Create("/app", nil, 0); err != nil {
			return
		}
		for _, p := range paths {
			if _, err := setup.Create(p, payload, 0); err != nil {
				return
			}
		}
		clients := make([]*fkclient.Client, readers)
		for i := range clients {
			c, err := fkclient.Connect(d, fmt.Sprintf("r%d", i), d.Cfg.Profile.Home)
			if err != nil {
				return
			}
			clients[i] = c
		}
		writer, err := fkclient.Connect(d, "writer", d.Cfg.Profile.Home)
		if err != nil {
			return
		}
		d.ResetMetrics()
		readersDone := sim.NewWaitGroup(k)
		writerDone := sim.NewWaitGroup(k)
		stopWriter := false
		writerDone.Go("caching-writer", func() {
			z := ycsb.NewZipfian(int64(nodeCount))
			r := rand.New(rand.NewSource(seed*7717 + 13))
			for !stopWriter {
				if _, err := writer.SetData(paths[z.Next(r)], payload, -1); err != nil {
					return
				}
				k.Sleep(10 * sim.Ms(1))
			}
		})
		viol := make([]int, readers)
		for i := range clients {
			readersDone.Go(fmt.Sprintf("caching-reader-%d", i), func() {
				z := ycsb.NewZipfian(int64(nodeCount))
				r := rand.New(rand.NewSource(seed + int64(i)*919))
				lastRead := map[string]int64{}
				for op := 0; op < readsPer; op++ {
					p := paths[z.Next(r)]
					ts := k.Now()
					_, st, err := clients[i].GetData(p)
					if err != nil {
						continue
					}
					res.lat.AddDur(k.Now() - ts)
					if st.Mzxid < lastRead[p] {
						viol[i]++
					}
					lastRead[p] = st.Mzxid
					k.Sleep(sim.Time(r.Intn(4)) * sim.Ms(1))
				}
			})
		}
		readersDone.Wait()
		for _, c := range readSideCategories {
			res.readUSD += d.Env.Meter.Cost(c)
		}
		stopWriter = true
		writerDone.Wait()
		for i, c := range clients {
			h1, h2, mi := c.CacheStats()
			res.l1Hits += h1
			res.l2Hits += h2
			res.misses += mi
			res.z3Viol += viol[i]
			c.Close()
		}
		writer.Close()
		setup.Close()
		res.ok = res.lat.N() == res.reads
	})
	k.Run()
	k.Shutdown()
	return res
}

func runCaching(cfg RunConfig) *Report {
	r := &Report{
		ID:    "caching",
		Title: "Read-path cache tier: hit ratio, latency, and cost",
		Ref:   "beyond the paper (ROADMAP: caching)",
	}
	readers := 6
	readsPer := cfg.reps(25, 120)
	nodes := 32

	variants := []struct {
		label string
		cc    core.Config
	}{
		{"FK DynamoDB (no cache)", core.Config{UserStore: core.StoreKV}},
		{"FK DynamoDB + regional cache", core.Config{UserStore: core.StoreKV, CacheMode: core.CacheRegional}},
		{"FK DynamoDB + two-level cache", core.Config{UserStore: core.StoreKV, CacheMode: core.CacheTwoLevel}},
		{"FK Redis user store (paper ablation)", core.Config{UserStore: core.StoreMem}},
	}

	s := r.AddSection(
		fmt.Sprintf("AWS, Zipf(0.99) read-heavy: %d readers × %d reads of %d B over %d nodes, concurrent writer",
			readers, readsPer, cachingPayloadB, nodes),
		[]string{"configuration", "hit %", "mean ms", "p50 ms", "p99 ms", "$/1M reads", "Z3 viol"})
	var baseMean, cachedMean, memMean float64
	var cachedHit float64
	for i, v := range variants {
		run := runCachingWorkload(cfg.Seed+int64(i)*31, v.cc, readers, readsPer, nodes)
		if !run.ok {
			s.AddRow(v.label, "-", "-", "-", "-", "-", "-")
			continue
		}
		mean := run.lat.Mean()
		switch i {
		case 0:
			baseMean = mean
		case 2:
			cachedMean = mean
			cachedHit = run.hitRatio()
		case 3:
			memMean = mean
		}
		p50, p99 := latCells(run.lat, f2)
		s.AddRow(v.label,
			f1(run.hitRatio()*100),
			f2(mean), p50, p99,
			dollars(run.dollarsPer1M()),
			fmt.Sprintf("%d", run.z3Viol))
	}

	// Capacity sensitivity: a regional node too small for the working set
	// must keep evicting and lose its hit ratio, not break consistency.
	s2 := r.AddSection("Two-level cache vs regional capacity (same workload)",
		[]string{"regional capacity", "hit %", "mean ms", "Z3 viol"})
	for i, capB := range []int{4 << 10, 64 << 20} {
		cc := core.Config{
			UserStore:      core.StoreKV,
			CacheMode:      core.CacheTwoLevel,
			CacheCapacityB: capB,
			// Starve the client level too, so the regional capacity is
			// what the row actually measures.
			ClientCacheCapacityB: 2 << 10,
		}
		run := runCachingWorkload(cfg.Seed+int64(100+i), cc, readers, readsPer, nodes)
		if !run.ok {
			s2.AddRow(sizeLabel(capB), "-", "-", "-")
			continue
		}
		s2.AddRow(sizeLabel(capB), f1(run.hitRatio()*100), f2(run.lat.Mean()),
			fmt.Sprintf("%d", run.z3Viol))
	}

	if baseMean > 0 && cachedMean > 0 && memMean > 0 {
		r.Note("Two-level cache: %.2f ms mean reads vs %.2f ms direct DynamoDB (%.1fx) and %.2f ms on the Redis user store, at %.0f%% hits — the leader installs every object it writes in the regional node, so even the first read after a write is the mem-store round trip of the paper's Redis ablation, without giving up pay-as-you-go storage; session-cache hits cost no round trip at all.",
			cachedMean, baseMean, baseMean/cachedMean, memMean, cachedHit*100)
	}
	r.Note("Entries are served only when they pass the session guards (per-path last-seen floor, shard MRD, Z4 epoch stamps), so the Z3 violation column must stay zero; the leader installs each object it writes in the regional node right after its own user-store write and invalidates only deletes, shared paths and atomic batches before theirs, so the node lags the store by at most the one write in flight, and per-path mzxid floors, raised by every install and invalidation, reject stale fills and installs that race an overwrite.")
	r.Note("$/1M reads is the meter's read-side spend over the read phase: user-store reads plus the cache node's VM time, accrued per cache operation. The Redis row's VM bills by the hour outside the meter, so it reads $0.")
	return r
}

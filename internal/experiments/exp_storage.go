package experiments

import (
	"fmt"

	"faaskeeper/internal/cloud"
	"faaskeeper/internal/cloud/kv"
	"faaskeeper/internal/cloud/object"
	"faaskeeper/internal/sim"
	"faaskeeper/internal/stats"
)

func init() {
	register(Experiment{
		ID:    "fig4b",
		Title: "Latency of read and write operations in AWS storage services",
		Ref:   "Figure 4b",
		Run:   runFig4b,
	})
}

func runFig4b(cfg RunConfig) *Report {
	r := &Report{ID: "fig4b", Title: "Storage latency vs size", Ref: "Figure 4b"}
	k := sim.NewKernel(cfg.Seed)
	env := cloud.NewEnv(k, cloud.AWSProfile())
	bucket := object.NewBucket(env, "bench", cloud.RegionAWSHome)
	table := kv.NewTable(env, "bench")
	reps := cfg.reps(20, 100)

	sizes := []int{1024, 50 * 1024, 100 * 1024, 200 * 1024, 400 * 1024, 500 * 1024}
	type point struct {
		size                     int
		s3w, s3r, s3wx, s3rx     float64
		ddbw, ddbr, ddbwx, ddbrx float64
	}
	var points []point

	local := cloud.ClientCtx(cloud.RegionAWSHome)
	remote := cloud.ClientCtx(cloud.RegionAWSRemote)
	k.Go("bench", func() {
		for _, size := range sizes {
			data := make([]byte, size)
			pt := point{size: size}
			measure := func(fn func()) float64 {
				s := stats.NewSample(reps)
				for i := 0; i < reps; i++ {
					t0 := k.Now()
					fn()
					s.AddDur(k.Now() - t0)
				}
				return s.Percentile(50)
			}
			pt.s3w = measure(func() { bucket.Put(local, "k", data) })
			pt.s3r = measure(func() { bucket.Get(local, "k") })
			pt.s3wx = measure(func() { bucket.Put(remote, "k", data) })
			pt.s3rx = measure(func() { bucket.Get(remote, "k") })
			if size <= 390*1024 { // DynamoDB item cap is 400 kB
				item := kv.Item{{Name: "d", V: kv.B(data)}}
				pt.ddbw = measure(func() { table.Put(local, "k", item, nil) })
				pt.ddbr = measure(func() { table.Get(local, "k", true) })
				// Cross-region key-value access pays the same network
				// penalty as the object store.
				pt.ddbwx = pt.ddbw + pt.s3wx - pt.s3w
				pt.ddbrx = pt.ddbr + pt.s3rx - pt.s3r
			}
			points = append(points, pt)
		}
	})
	k.Run()
	k.Shutdown()

	s1 := r.AddSection("AWS S3 (median ms)", []string{"size", "write", "read", "x-region write", "x-region read"})
	s2 := r.AddSection("AWS DynamoDB (median ms)", []string{"size", "write", "read", "x-region write", "x-region read"})
	for _, pt := range points {
		s1.AddRow(sizeLabel(pt.size), f1(pt.s3w), f1(pt.s3r), f1(pt.s3wx), f1(pt.s3rx))
		if pt.ddbw > 0 {
			s2.AddRow(sizeLabel(pt.size), f1(pt.ddbw), f1(pt.ddbr), f1(pt.ddbwx), f1(pt.ddbrx))
		} else {
			s2.AddRow(sizeLabel(pt.size), "n/a (>400kB)", "", "", "")
		}
	}
	last := points[len(points)-1]
	r.Note("Cross-region access penalty at 500 kB: +%.0f ms on reads (paper: 150-300 ms band).", last.s3rx-last.s3r)
	var big point // largest size the KV store accepts
	for _, pt := range points {
		if pt.ddbw > 0 {
			big = pt
		}
	}
	r.Note("DynamoDB write at %s: %.0f ms vs S3 %.0f ms — 'slow writes on large user data'.",
		sizeLabel(big.size), big.ddbw, big.s3w)
	r.Note(fmt.Sprintf("Efficient large reads on S3: %.0f ms at 500 kB.", last.s3r))
	return r
}

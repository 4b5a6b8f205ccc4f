package main

import (
	"fmt"
	"slices"
)

// e2eMetric is one end-to-end metric of one workload: the reported value
// and the value each pass gave on its own.
type e2eMetric struct {
	metric
	perPass []float64
}

// quartiles returns the first quartile, median and third quartile of the
// per-pass values.
func (m e2eMetric) quartiles() (q1, med, q3 float64) {
	per := append([]float64(nil), m.perPass...)
	return quantile(per, 0.25), quantile(per, 0.5), quantile(per, 0.75)
}

// e2eResult is the outcome of a workload's end-to-end passes.
type e2eResult struct {
	metrics   []e2eMetric
	attempted int64
	failed    int64
	failures  []string
}

// passSeed derives pass i's seed from the run's seed. Passes 0..n-2 each
// get their own; the last repeats pass 0, and must reproduce its virtual
// results bit for bit.
func passSeed(seed int64, i, passes int) int64 {
	if passes > 1 && i == passes-1 {
		i = 0
	}
	return seed*1000003 + int64(i)
}

// headlineLat is the latency sample op_p50_vms and op_p99_vms summarise:
// the workload's headline class, on open_write at the headline step only.
func headlineLat(w *workload, p *passResult) []float64 {
	if len(p.steps) > openHeadlineStep {
		return p.steps[openHeadlineStep].lat
	}
	return p.lat[w.headline]
}

func median(xs []float64) float64 {
	return quantile(append([]float64(nil), xs...), 0.5)
}

// endToEnd turns a workload's untraced passes into its end-to-end
// metrics. Virtual-time metrics pool the passes that ran on distinct
// seeds (the repeat adds nothing new); host-time metrics take the median
// over all passes.
func endToEnd(w *workload, passes []*passResult) e2eResult {
	var res e2eResult
	distinct := passes
	if n := len(passes); n > 1 {
		distinct = passes[:n-1]
		res.attempted++
		if passes[n-1].vhash != passes[0].vhash {
			res.failed++
			res.failures = append(res.failures, "two passes of one seed disagree in virtual time")
		}
	}
	each := func(ps []*passResult, f func(*passResult) float64) []float64 {
		out := make([]float64, len(ps))
		for i, p := range ps {
			out[i] = f(p)
		}
		return out
	}
	var lat []float64
	var ops, usd, vsec float64
	for _, p := range distinct {
		lat = append(lat, headlineLat(w, p)...)
		ops += float64(p.ops)
		usd += p.usd
		vsec += p.vwindow.Seconds()
	}
	for _, p := range passes {
		res.attempted += p.attempted
		res.failed += p.failed
		res.failures = append(res.failures, p.failures...)
	}
	add := func(name, unit string, value float64, perPass []float64) {
		res.metrics = append(res.metrics, e2eMetric{metric{name, value, unit}, perPass})
	}
	quant := func(q float64) func(*passResult) float64 {
		return func(p *passResult) float64 { return quantile(headlineLat(w, p), q) }
	}
	add("op_p50_vms", "vms", quantile(lat, 0.5), each(distinct, quant(0.5)))
	add("op_p99_vms", "vms", quantile(lat, 0.99), each(distinct, quant(0.99)))
	add("vthroughput_ops_per_vs", "ops/vs", ops/vsec,
		each(distinct, func(p *passResult) float64 { return float64(p.ops) / p.vwindow.Seconds() }))
	add("usd_per_1m_ops", "usd", usd/ops*1e6,
		each(distinct, func(p *passResult) float64 { return p.usd / float64(p.ops) * 1e6 }))

	host := func(name, unit string, f func(*passResult) float64) {
		per := each(passes, f)
		add(name, unit, median(per), per)
	}
	// Host throughput is the best pass's: a pass's value is its median
	// chunk, which shrugs off bursts, and the best of the passes shrugs
	// off a disturbed pass. Noise on a shared machine only ever slows.
	rate := each(passes, func(p *passResult) float64 { return 1e6 / median(p.chunkUs) })
	add("sim_ops_per_wall_s", "ops/s", slices.Max(rate), rate)
	host("allocs_per_op", "count", func(p *passResult) float64 { return float64(p.mallocs) / float64(p.ops) })
	host("alloc_kb_per_op", "KB", func(p *passResult) float64 { return float64(p.allocB) / 1024 / float64(p.ops) })
	host("setup_s", "s", func(p *passResult) float64 { return p.setup.Seconds() })
	return res
}

// printEndToEnd prints one workload's end-to-end table.
func printEndToEnd(w *workload, res e2eResult) {
	fmt.Printf("%s (%s preset): end to end, %d of %d checks failed\n", w.name, w.preset, res.failed, res.attempted)
	fmt.Printf("  %-26s %14s %-7s %14s %14s %14s %3s\n", "metric", "value", "unit", "q1", "median", "q3", "n")
	for _, m := range res.metrics {
		q1, med, q3 := m.quartiles()
		fmt.Printf("  %-26s %14.4f %-7s %14.4f %14.4f %14.4f %3d\n", m.name, m.value, m.unit,
			q1, med, q3, len(m.perPass))
	}
	for _, f := range res.failures {
		fmt.Printf("  FAILED: %s\n", f)
	}
}

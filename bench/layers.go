package main

import (
	"math"
	"strconv"
	"strings"

	"faaskeeper/internal/obs"
	"faaskeeper/internal/stats"
)

// Per-layer metrics come from outside the program in three ways: the obs
// telemetry of a traced pass, the cloud.Meter and cache counters of an
// untraced reference pass of the same seed, and the layer probes. A
// metric of a layer the workload leaves idle reads 0.

// stages is the write pipeline's telescoping chain: the seven stage spans
// partition a write's root span exactly.
var stages = []struct{ metric, span string }{
	{"stage.client_submit", obs.StageSubmit},
	{"stage.queue_session", obs.StageQueue},
	{"stage.follower_validate", obs.StageValidate},
	{"stage.queue_leader", obs.StageLeaderQ},
	{"stage.leader_commit", obs.StageCommit},
	{"stage.distributor_flush", obs.StageFlush},
	{"stage.response_net", obs.StageRespond},
}

// legs run beside the chain, under the same root.
var legs = []struct{ metric, span string }{
	{"leg.follower_commit", obs.SpanFollowerCommit},
	{"leg.store_write", obs.SpanStoreWrite},
	{"leg.cache_invalidate", obs.SpanCacheInval},
	{"leg.watch_deliver", obs.SpanWatchDeliver},
}

// usdShares groups the meter's categories by the layer that bills them.
var usdShares = []struct {
	metric   string
	prefixes []string
}{
	{"usd_share.faas", []string{"faas."}},
	{"usd_share.syskv", []string{"syskv."}},
	{"usd_share.userstore", []string{"obj.", "userkv."}},
	{"usd_share.queue", []string{"queue."}},
	{"usd_share.cache", []string{"cache."}},
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func quantileOr0(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return quantile(xs, q)
}

func meanOr0(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return mean(xs)
}

func sumPrefixed[V int64 | float64](m map[string]V, prefixes ...string) (sum V) {
	for k, v := range m {
		for _, p := range prefixes {
			if strings.HasPrefix(k, p) {
				sum += v
			}
		}
	}
	return sum
}

// spanHist merges one span name's registry histograms over shards and
// regions.
func spanHist(reg *obs.Registry, name string) *stats.Sample {
	merged := stats.NewSample(0)
	for _, k := range reg.HistKeys() {
		if k.Component == "span" && k.Name == name {
			for _, x := range reg.Hist(k).Values() {
				merged.Add(x)
			}
		}
	}
	return merged
}

// virtualDrift compares the virtual-time results of two passes of one
// seed: 0 when they agree bit for bit, otherwise the largest relative
// difference between their latency quantiles and windows (at least the
// smallest positive number, so that a disagreement never reads 0).
func virtualDrift(a, b *passResult) float64 {
	if a.vhash == b.vhash {
		return 0
	}
	drift := math.SmallestNonzeroFloat64
	diff := func(x, y float64) {
		if x != y {
			drift = math.Max(drift, math.Abs(x-y)/math.Max(math.Abs(x), math.Abs(y)))
		}
	}
	for c := range a.lat {
		for _, q := range []float64{0.5, 0.99} {
			diff(quantileOr0(a.lat[c], q), quantileOr0(b.lat[c], q))
		}
	}
	diff(a.vwindow.Seconds(), b.vwindow.Seconds())
	return drift
}

// layerMetrics derives every per-layer metric of one workload except the
// probes: ref is the untraced pass, traced the same seed with telemetry
// and cost accounting on.
func layerMetrics(ref, traced *passResult, missingFields int) []metric {
	var out []metric
	add := func(name string, value float64, unit string) {
		out = append(out, metric{name, value, unit})
	}
	writes, reads := float64(ref.writes), float64(ref.reads)

	// fkclient, untraced.
	for c, cls := range classNames {
		l := ref.lat[c]
		add("client."+cls+"_p50_vms", quantileOr0(l, 0.5), "vms")
		add("client."+cls+"_p99_vms", quantileOr0(l, 0.99), "vms")
		add("client."+cls+"_p999_vms", quantileOr0(l, 0.999), "vms")
		if opClass(c) != clsNotify {
			add("client."+cls+"_mean_vms", meanOr0(l), "vms")
		}
	}
	maxRate := 0.0
	for i, rate := range openRates {
		var p99 float64
		if i < len(ref.steps) {
			p99 = quantileOr0(ref.steps[i].lat, 0.99)
			if ref.steps[i].meetsSLO {
				maxRate = float64(rate)
			}
		}
		add("open.p99_vms.r"+strconv.Itoa(rate), p99, "vms")
	}
	add("open.max_rate_slo_ops_per_vs", maxRate, "ops/vs")
	backlogEnd := 0.0
	if n := len(ref.steps); n > 0 {
		backlogEnd = float64(ref.steps[n-1].backlogEnd)
	}
	add("open.backlog_end.r"+strconv.Itoa(openRates[len(openRates)-1]), backlogEnd, "count")
	add("open.gen_late_p99_vms", quantileOr0(ref.genLate, 0.99), "vms")

	// core pipeline stages and legs, traced.
	reg := traced.hub.Metrics
	var stageSum, leaderBusy float64
	for _, s := range stages {
		h := spanHist(reg, s.span)
		var m, p99 float64
		if h.N() > 0 {
			m, p99 = h.Mean(), h.Percentile(99)
		}
		add(s.metric+".mean_vms", m, "vms")
		add(s.metric+".p99_vms", p99, "vms")
		stageSum += m
		if s.span == obs.StageCommit || s.span == obs.StageFlush {
			leaderBusy += m
		}
	}
	for _, l := range legs {
		var m float64
		if h := spanHist(reg, l.span); h.N() > 0 {
			m = h.Mean()
		}
		add(l.metric+".mean_vms", m, "vms")
	}
	// The stage chain starts at the call, an open loop's samples at the due
	// time; the generator's lateness (none in a closed loop) is the
	// difference.
	writeMean := meanOr0(traced.lat[clsWrite]) - meanOr0(traced.genLate)
	add("stage.sum_error_ratio", ratio(math.Abs(stageSum-writeMean), writeMean), "ratio")
	add("leader.busy_ratio",
		ratio(leaderBusy/1e3*float64(traced.writes), traced.vwindow.Seconds()*float64(traced.shards)), "ratio")

	// cloud work counts, from the meter.
	userWrites := float64(sumPrefixed(ref.counts, "obj.write", "userkv.write"))
	add("kv.sys_reads_per_write", ratio(float64(ref.counts["syskv.read"]), writes), "count")
	add("kv.sys_writes_per_write", ratio(float64(ref.counts["syskv.write"]), writes), "count")
	add("store.user_reads_per_read", ratio(float64(sumPrefixed(ref.counts, "obj.read", "userkv.read")), reads), "count")
	add("queue.msgs_per_write", ratio(float64(ref.counts["queue.msg"]), writes), "count")
	add("faas.follower_inv_per_write", ratio(float64(ref.counts["faas.follower"]), writes), "count")
	add("faas.leader_inv_per_write", ratio(float64(ref.counts["faas.leader"]), writes), "count")
	add("faas.watch_inv_per_write", ratio(float64(ref.counts["faas.watch"]), writes), "count")
	add("faas.cold_starts", float64(ref.coldStart), "count")
	add("faas.billed_s_per_write", ratio(ref.billedSec, writes), "s")
	for _, s := range usdShares {
		add(s.metric, ratio(sumPrefixed(ref.dollars, s.prefixes...), ref.usd), "ratio")
	}

	// cache.
	lookups := float64(ref.l1 + ref.l2 + ref.miss)
	add("cache.l1_hit_ratio", ratio(float64(ref.l1), lookups), "ratio")
	add("cache.l2_hit_ratio", ratio(float64(ref.l2), lookups), "ratio")
	add("cache.miss_ratio", ratio(float64(ref.miss), lookups), "ratio")
	add("cache.evictions", float64(ref.evictions), "count")

	// distributor.
	var flushes float64
	for _, sp := range traced.obsSpans {
		if sp.Name == obs.SpanStoreWrite {
			flushes++
		}
	}
	add("distributor.fold_ratio", ratio(userWrites, writes), "ratio")
	add("distributor.flushes_per_write", ratio(flushes, float64(traced.writes)), "count")

	// watch.
	add("watch.deliveries_per_write", ratio(float64(ref.notifications), writes), "count")
	add("watch.order_violations", float64(ref.orderViolations), "count")

	// obs: what the telemetry itself costs, and that it moves no virtual
	// timestamp.
	refRate, tracedRate := 1e6/quantile(ref.chunkUs, 0.5), 1e6/quantile(traced.chunkUs, 0.5)
	add("obs.overhead_wall_ratio", tracedRate/refRate, "ratio")
	add("obs.overhead_allocs_per_op",
		float64(traced.mallocs)/float64(traced.ops)-float64(ref.mallocs)/float64(ref.ops), "count")
	add("obs.spans_per_write", ratio(float64(len(traced.obsSpans)), float64(traced.writes)), "count")
	add("obs.virtual_drift", virtualDrift(ref, traced), "ratio")

	// host.
	add("wall.us_per_op_q1", quantile(ref.chunkUs, 0.25), "us")
	add("wall.us_per_op_q3", quantile(ref.chunkUs, 0.75), "us")
	add("wall.gc_pause_ms", float64(ref.gcPauseNs)/1e6, "ms")
	add("wall.heap_peak_mb", float64(ref.heapSysB)/(1<<20), "MB")

	// the benchmark's own checks.
	add("oracle.fail_ratio", ratio(float64(ref.failed+traced.failed), float64(ref.attempted+traced.attempted)), "ratio")
	add("preset.fields_missing", float64(missingFields), "count")
	return out
}

package main

import (
	"encoding/binary"
	"math"
	"regexp"
	"strings"
	"testing"

	"faaskeeper/internal/core"
	"faaskeeper/internal/znode"
)

// TestSmoke runs every workload's end-to-end and layer run and the probes
// at a hundredth of full size and checks the benchmark against its own
// contract: the emitted names are BENCHMARK.json's, every value is finite,
// the oracle is clean, and the baseline predictions hold.
func TestSmoke(t *testing.T) {
	spec, err := loadSpec("")
	if err != nil {
		t.Fatal(err)
	}
	o := options{seed: 1, scale: 0.01, passes: 2, outDir: t.TempDir()}

	var want []string
	for _, w := range spec.Workloads {
		want = append(want, w.Name)
	}
	var got []string
	for _, w := range workloads {
		got = append(got, w.name)
		if _, missing := applyPreset(w.preset); len(missing) > 0 {
			t.Errorf("%s: core.Config lacks preset fields %v", w.name, missing)
		}
	}
	sameNames(t, "workloads", got, want)

	nameOK := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	checkValues := func(w *workload, ms []metric) map[string]float64 {
		vals := map[string]float64{}
		for _, m := range ms {
			if !nameOK.MatchString(m.name) {
				t.Errorf("%s: bad metric name %q", w.name, m.name)
			}
			if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
				t.Errorf("%s: %s = %v", w.name, m.name, m.value)
			}
			vals[m.name] = m.value
		}
		return vals
	}
	specNames := func(ms []specMetric) (names []string) {
		for _, m := range ms {
			names = append(names, m.Name)
		}
		return names
	}

	probeMetrics := runProbes(o.scale * probeScale)
	for _, w := range workloads {
		res := runEndToEnd(w, o)
		if res.failed > 0 {
			t.Errorf("%s end to end: %d of %d checks failed: %v", w.name, res.failed, res.attempted, res.failures)
		}
		var ms []metric
		for _, m := range res.metrics {
			ms = append(ms, m.metric)
			if m.value == 0 {
				t.Errorf("%s: end-to-end metric %s is 0", w.name, m.name)
			}
		}
		sameNames(t, w.name+" end_to_end", keys(checkValues(w, ms)), specNames(spec.EndToEnd))

		layers := runLayers(w, o, probeMetrics, 0)
		if layers.failed > 0 {
			t.Errorf("%s layers: %d of %d checks failed: %v", w.name, layers.failed, layers.attempted, layers.failures)
		}
		vals := checkValues(w, layers.metrics)
		sameNames(t, w.name+" per_layer", keys(vals), specNames(spec.PerLayer))

		// Baseline predictions.
		switch w.name {
		case "paper_write":
			if f := vals["distributor.fold_ratio"]; f != 1 {
				t.Errorf("paper_write: distributor.fold_ratio = %v, want 1 (per-message distribution)", f)
			}
		case "scaled_mixed":
			if f := vals["distributor.fold_ratio"]; f <= 0 || f >= 1 {
				t.Errorf("scaled_mixed: distributor.fold_ratio = %v, want below 1 (the Zipf head folds)", f)
			}
		case "paper_read":
			for name, v := range vals {
				if strings.HasSuffix(name, "_per_write") && v != 0 {
					t.Errorf("paper_read: %s = %v, want 0 (reads bypass every function)", name, v)
				}
			}
			if r := vals["store.user_reads_per_read"]; r != 1 {
				t.Errorf("paper_read: store.user_reads_per_read = %v, want 1", r)
			}
		case "watch_notify":
			if d := vals["watch.deliveries_per_write"]; d != float64(w.watchers/w.nodes) {
				t.Errorf("watch_notify: watch.deliveries_per_write = %v, want %d", d, w.watchers/w.nodes)
			}
		}
	}
}

// TestOracleCatchesLostWrite feeds the oracle a history with a stale read
// and a lost write: a checker that cannot fail checks nothing.
func TestOracleCatchesLostWrite(t *testing.T) {
	o := newOracle(1, 1)
	o.created(0, 1, nil)
	o.acked(0, 0, 2, statV(1), nil)
	o.read(0, 0, stamped(1), statV(0), nil) // below the session's own write
	if o.failed != 1 {
		t.Fatalf("stale read: failed = %d, want 1", o.failed)
	}
	o.final(0, stamped(1), statV(0), nil) // the acknowledged version 1 is gone
	if o.failed != 2 {
		t.Fatalf("lost write: failed = %d, want 2", o.failed)
	}
}

func TestSetIfPresent(t *testing.T) {
	var cfg core.Config
	if !setIfPresent(&cfg, "WriteShards", 4) || cfg.WriteShards != 4 {
		t.Errorf("WriteShards not set: %+v", cfg.WriteShards)
	}
	if setIfPresent(&cfg, "NoSuchSwitch", true) {
		t.Error("a field core.Config lacks was reported present")
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 8, 16, 32, 64, 128, 256, 512], n=4)
	// == [3.5, 24.0, 160.0]
	q1, q3 := quartiles([]float64{512, 1, 2, 4, 8, 16, 32, 64, 128, 256})
	if q1 != 3.5 || q3 != 160 {
		t.Errorf("quartiles = %v, %v; want 3.5, 160", q1, q3)
	}
}

func keys(m map[string]float64) (out []string) {
	for k := range m {
		out = append(out, k)
	}
	return out
}

func sameNames(t *testing.T, what string, got, want []string) {
	t.Helper()
	in := func(xs []string) map[string]bool {
		m := map[string]bool{}
		for _, x := range xs {
			m[x] = true
		}
		return m
	}
	g, w := in(got), in(want)
	for _, x := range got {
		if !w[x] {
			t.Errorf("%s: emits %q, which BENCHMARK.json does not list", what, x)
		}
	}
	for _, x := range want {
		if !g[x] {
			t.Errorf("%s: BENCHMARK.json lists %q, which is not emitted", what, x)
		}
	}
}

func statV(v int32) znode.Stat { return znode.Stat{Version: v, Mzxid: int64(v)} }

func stamped(stamp uint64) []byte {
	data := make([]byte, 8)
	binary.LittleEndian.PutUint64(data, stamp)
	return data
}

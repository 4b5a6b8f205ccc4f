package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
)

// benchSpec is the part of BENCHMARK.json the benchmark reads back.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// loadSpec reads BENCHMARK.json from path, or from the working directory
// or its parent when path is empty.
func loadSpec(path string) (benchSpec, error) {
	candidates := []string{path}
	if path == "" {
		candidates = []string{"BENCHMARK.json", "../BENCHMARK.json"}
	}
	var spec benchSpec
	var err error
	for _, c := range candidates {
		var b []byte
		if b, err = os.ReadFile(c); err == nil {
			return spec, json.Unmarshal(b, &spec)
		}
	}
	return spec, err
}

// calibrateSeeds is how many seeds one calibration set runs: the count the
// driver uses when it accepts the benchmark.
const calibrateSeeds = 10

// quartiles returns the first and third quartile of xs as Python's
// statistics.quantiles(xs, n=4) gives them (the exclusive method), which
// is the statistic the driver computes.
func quartiles(xs []float64) (q1, q3 float64) {
	data := append([]float64(nil), xs...)
	sort.Float64s(data)
	ld := len(data)
	cut := func(i int) float64 {
		j, delta := i*(ld+1)/4, i*(ld+1)%4
		j = min(max(j, 1), ld-1)
		return (data[j-1]*float64(4-delta) + data[j]*float64(delta)) / 4
	}
	return cut(1), cut(3)
}

// runCalibrate runs two back-to-back sets of calibrateSeeds end-to-end
// runs per workload, each run on its own seed, and holds every bound in
// BENCHMARK.json against what it saw: the spread of a set (quartile
// distance over median) must stay below a third of the metric's bound,
// and the second set's median must not be worse than the first's by more
// than the bound. setup_s is held to the second rule only.
func runCalibrate(sel []*workload, o options, specPath string) int {
	spec, err := loadSpec(specPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 2
	}
	// values[set][workload][metric] holds one value per seed.
	var values [2][]map[string][]float64
	code := 0
	for set := range values {
		values[set] = make([]map[string][]float64, len(sel))
		for j, w := range sel {
			values[set][j] = map[string][]float64{}
			for s := 0; s < calibrateSeeds; s++ {
				run := o
				run.seed = o.seed + int64(s)
				fmt.Fprintf(os.Stderr, "bench: set %d, %s, seed %d\n", set+1, w.name, run.seed)
				res := runEndToEnd(w, run)
				for _, m := range res.metrics {
					values[set][j][m.name] = append(values[set][j][m.name], m.value)
				}
				if res.failed > 0 {
					fmt.Printf("%s seed %d: %d checks failed: %v\n", w.name, run.seed, res.failed, res.failures)
					code = 1
				}
			}
		}
	}
	fmt.Printf("%-14s %-24s %6s %12s %8s %8s %8s  %s\n",
		"workload", "metric", "bound", "median", "spread1", "spread2", "shift", "verdict")
	for j, w := range sel {
		for _, m := range spec.EndToEnd {
			a, b := values[0][j][m.Name], values[1][j][m.Name]
			if len(a) == 0 {
				fmt.Printf("%-14s %-24s not emitted\n", w.name, m.Name)
				code = 1
				continue
			}
			spread := func(xs []float64) float64 {
				q1, q3 := quartiles(xs)
				return (q3 - q1) / median(xs)
			}
			s1, s2 := spread(a), spread(b)
			shift := (median(b) - median(a)) / median(a) // positive = grew
			if m.Better == "higher" {
				shift = -shift
			}
			verdict := "ok"
			if m.Name != "setup_s" && 3*math.Max(s1, s2) > m.Bound {
				verdict = "SPREAD ABOVE A THIRD OF THE BOUND"
				code = 1
			}
			if shift > m.Bound {
				verdict = "SECOND SET WORSE THAN THE BOUND"
				code = 1
			}
			fmt.Printf("%-14s %-24s %6.3f %12.4f %8.4f %8.4f %+8.4f  %s\n",
				w.name, m.Name, m.Bound, median(a), s1, s2, shift, verdict)
		}
	}
	return code
}

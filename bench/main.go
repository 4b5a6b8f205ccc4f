// Command bench is the repository's benchmark: five workloads driven
// through the deployment's public surface, reported on two clocks —
// virtual time (what the reproduced system would deliver on a cloud;
// exact for a seed) and host time (what the simulator costs to run) —
// with a per-layer ledger from a traced second run and layer probes.
//
//	go run -C bench . -seed 1                          every workload, both runs
//	go run -C bench . -workload paper_write -trace 0   one workload, end to end
//	go run -C bench . -calibrate                       spreads against BENCHMARK.json
//
// The driver's contract (BENCHMARK.json) runs bench/run.sh with
// -workload, -seed, -seconds and -trace, and reads the last line of the
// standard output. See README.md for the metric glossary.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
)

// layerScale sizes the two passes of a layer run relative to one
// end-to-end pass, and probeScale the probes' loop counts relative to
// their full size, so that a layer run costs about as much host time as
// an end-to-end run.
const (
	layerScale = 1.5
	probeScale = 0.5
)

// fullSeconds is the -seconds value at which the workloads run at their
// full size.
const fullSeconds = 10

type options struct {
	seed   int64
	scale  float64 // operation counts relative to full size: -seconds / fullSeconds
	passes int
	outDir string
}

// layerResult is the outcome of a workload's layer run.
type layerResult struct {
	metrics   []metric
	attempted int64
	failed    int64
	failures  []string
}

// workloadReport is everything one invocation measured on one workload;
// a run the invocation did not make is nil.
type workloadReport struct {
	w       *workload
	missing []string // preset fields core.Config no longer has
	e2e     *e2eResult
	layers  *layerResult
}

func (r workloadReport) totals() (attempted, failed int64) {
	if r.e2e != nil {
		attempted, failed = r.e2e.attempted, r.e2e.failed
	}
	if r.layers != nil {
		attempted, failed = attempted+r.layers.attempted, failed+r.layers.failed
	}
	return attempted, failed
}

// runEndToEnd makes one workload's untraced passes, back to back. Passes
// of different workloads are not interleaved: in one process a pass runs up
// to a third slower after a pass of another workload has reshaped the heap.
func runEndToEnd(w *workload, o options) e2eResult {
	passes := make([]*passResult, o.passes)
	for i := range passes {
		passes[i] = runPass(w, passSeed(o.seed, i, o.passes), o.scale, false)
	}
	return endToEnd(w, passes)
}

// runLayers makes one workload's layer run: an untraced reference pass, a
// traced pass of the same seed, the per-layer metrics from both plus the
// probes', and the trace files.
func runLayers(w *workload, o options, probeMetrics []metric, missing int) layerResult {
	scale := o.scale * layerScale
	seed := passSeed(o.seed, 0, 1)
	ref := runPass(w, seed, scale, false)
	traced := runPass(w, seed, scale, true)
	res := layerResult{
		metrics:   append(layerMetrics(ref, traced, missing), probeMetrics...),
		attempted: ref.attempted + traced.attempted,
		failed:    ref.failed + traced.failed,
		failures:  append(ref.failures, traced.failures...),
	}
	check := func(ok bool, format string, args ...any) {
		res.attempted++
		if !ok {
			res.failed++
			res.failures = append(res.failures, fmt.Sprintf(format, args...))
		}
	}
	for _, m := range res.metrics {
		switch m.name {
		case "obs.virtual_drift":
			check(m.value == 0, "telemetry moved virtual time: drift %g", m.value)
		case "stage.sum_error_ratio":
			check(m.value < 0.001, "stage means miss the client-observed write mean by %g", m.value)
		}
	}
	if err := writeTraceFiles(o.outDir, w, traced); err != nil {
		check(false, "trace files: %v", err)
	}
	return res
}

// driverLine is the object the driver reads from the last output line.
type driverLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]driverValue `json:"metrics"`
}

type driverValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func printDriverLine(r workloadReport) error {
	attempted, failed := r.totals()
	line := driverLine{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]driverValue{}}
	if r.e2e != nil {
		for _, m := range r.e2e.metrics {
			line.Metrics[m.name] = driverValue{m.value, m.unit}
		}
	}
	if r.layers != nil {
		for _, m := range r.layers.metrics {
			line.Metrics[m.name] = driverValue{m.value, m.unit}
		}
	}
	b, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Println(string(b))
	return err
}

func printLayers(w *workload, res *layerResult) {
	fmt.Printf("%s (%s preset): per layer, %d of %d checks failed\n", w.name, w.preset, res.failed, res.attempted)
	for _, m := range res.metrics {
		fmt.Printf("  %-34s %16.4f %s\n", m.name, m.value, m.unit)
	}
	for _, f := range res.failures {
		fmt.Printf("  FAILED: %s\n", f)
	}
}

func main() { os.Exit(realMain(os.Args[1:])) }

func realMain(args []string) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	var o options
	name := fs.String("workload", "", "run one workload (default: all)")
	fs.Int64Var(&o.seed, "seed", 1, "seed of the kernel and of every key stream")
	seconds := fs.Int("seconds", fullSeconds, "host seconds one run measures; sizes the operation counts")
	fs.IntVar(&o.passes, "passes", 5, "end-to-end passes per workload; the last repeats the first's seed")
	trace := fs.String("trace", "", "0: end-to-end run, 1: layer run (default: both)")
	jsonFile := fs.String("json", "", "also write the full report to this file")
	fs.StringVar(&o.outDir, "out", "out", "directory for the traced run's files")
	calibrate := fs.Bool("calibrate", false, "measure seed-to-seed and set-to-set spread against BENCHMARK.json")
	spec := fs.String("spec", "", "BENCHMARK.json (default: ./BENCHMARK.json, then ../BENCHMARK.json)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || *seconds < 1 || o.passes < 1 || (*trace != "" && *trace != "0" && *trace != "1") {
		fmt.Fprintln(os.Stderr, "bench: bad arguments; see -help")
		return 2
	}
	o.scale = float64(*seconds) / fullSeconds
	sel := workloads
	if *name != "" {
		w := workloadByName(*name)
		if w == nil {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *name)
			return 2
		}
		sel = []*workload{w}
	}
	// One CPU. The simulator runs one process at a time and hands control
	// from goroutine to goroutine over channels; on a second CPU every
	// hand-off becomes a cross-thread wake-up, which at this commit runs the
	// write workloads 1.7x slower and three times as unevenly.
	runtime.GOMAXPROCS(1)

	if *calibrate {
		return runCalibrate(sel, o, *spec)
	}

	reports := make([]workloadReport, len(sel))
	for i, w := range sel {
		_, missing := applyPreset(w.preset)
		reports[i] = workloadReport{w: w, missing: missing}
	}
	if *trace != "1" {
		for i, w := range sel {
			res := runEndToEnd(w, o)
			reports[i].e2e = &res
		}
	}
	if *trace != "0" {
		probeMetrics := runProbes(o.scale * probeScale)
		for i, w := range sel {
			res := runLayers(w, o, probeMetrics, len(reports[i].missing))
			reports[i].layers = &res
		}
	}

	code := 0
	for _, r := range reports {
		if r.e2e != nil {
			printEndToEnd(r.w, *r.e2e)
		}
		if r.layers != nil {
			printLayers(r.w, r.layers)
		}
		if len(r.missing) > 0 {
			fmt.Printf("  preset_fields_missing: %v\n", r.missing)
		}
		if _, failed := r.totals(); failed > 0 {
			code = 1
		}
	}
	if *jsonFile != "" {
		if err := writeJSONReport(*jsonFile, o, reports); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			code = 1
		}
	}
	if len(reports) == 1 && *trace != "" {
		if err := printDriverLine(reports[0]); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			code = 1
		}
	}
	return code
}

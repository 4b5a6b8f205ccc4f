// Command benchjson maintains the repo's persisted benchmark trajectory
// (the BENCH_*.json series). It has two modes:
//
//	benchjson emit <bench-output.txt>            # JSON report on stdout
//	benchjson compare <baseline.json> <new.json> # exit 1 on regression
//
// emit parses `go test -bench` output and serializes every BenchmarkFK*
// result — ns/op, vsec/op, B/op, allocs/op, and any custom metrics — into
// a stable JSON document (benchmarks sorted by name, GOMAXPROCS suffix
// stripped).
//
// compare checks a fresh report against the committed baseline and fails
// on a >15% regression in either vsec/op (simulated latency: fully
// deterministic, any drift is a real model change) or allocs/op (the
// allocation budget), and on a >15% drift in EITHER direction of
// usd-per-1m/op (attributed cost, gated by BENCH_cost.json — a cheaper
// number is as much an unacknowledged model change as a pricier one).
// Wall-clock ns/op and B/op are recorded for the trajectory but not
// gated — CI runners are too noisy for them.
package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// Entry is one benchmark's parsed result.
type Entry struct {
	Name    string             `json:"name"`
	Iters   int64              `json:"iters"`
	Metrics map[string]float64 `json:"metrics"`
}

// Report is the persisted document: one entry per benchmark.
type Report struct {
	Note       string  `json:"note"`
	Benchmarks []Entry `json:"benchmarks"`
}

// gatedMetrics are the deterministic metrics compare enforces; the rest
// of the trajectory is informational.
var gatedMetrics = []string{"vsec/op", "allocs/op", "usd-per-1m/op"}

// twoSided marks gated metrics where drift in either direction fails:
// attributed dollar cost is fully deterministic, so a number coming in 15%
// cheaper is as much an unacknowledged model change as one 15% pricier.
var twoSided = map[string]bool{"usd-per-1m/op": true}

const tolerance = 0.15

// benchLine matches e.g.
//
//	BenchmarkFKMultiTxn/shards2-8   10   136500 ns/op   0.055 vsec/op   58487 B/op   624 allocs/op
var benchLine = regexp.MustCompile(`^(Benchmark\S+)\s+(\d+)\s+(.*)$`)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "emit":
		if len(os.Args) != 3 {
			usage()
		}
		if err := emit(os.Args[2]); err != nil {
			fatal(err)
		}
	case "compare":
		if len(os.Args) != 4 {
			usage()
		}
		ok, err := compare(os.Args[2], os.Args[3])
		if err != nil {
			fatal(err)
		}
		if !ok {
			os.Exit(1)
		}
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: benchjson emit <bench-output.txt> | benchjson compare <baseline.json> <new.json>")
	os.Exit(2)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchjson:", err)
	os.Exit(2)
}

func emit(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()

	var entries []Entry
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		m := benchLine.FindStringSubmatch(strings.TrimSpace(sc.Text()))
		if m == nil || !strings.HasPrefix(m[1], "BenchmarkFK") {
			continue
		}
		iters, err := strconv.ParseInt(m[2], 10, 64)
		if err != nil {
			continue
		}
		metrics, err := parseMetrics(m[3])
		if err != nil {
			return fmt.Errorf("%s: %w", m[1], err)
		}
		entries = append(entries, Entry{Name: stripProcs(m[1]), Iters: iters, Metrics: metrics})
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if len(entries) == 0 {
		return fmt.Errorf("no BenchmarkFK* lines found in %s", path)
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].Name < entries[j].Name })
	rep := Report{
		Note:       "FaaSKeeper bench trajectory; regenerate: go test -bench BenchmarkFK -benchtime 1x -benchmem -run '^$' . | go run ./cmd/benchjson emit /dev/stdin",
		Benchmarks: entries,
	}
	out, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	_, err = fmt.Println(string(out))
	return err
}

// stripProcs removes the trailing GOMAXPROCS suffix (-8) so reports from
// machines with different core counts compare by name.
func stripProcs(name string) string {
	if i := strings.LastIndex(name, "-"); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			return name[:i]
		}
	}
	return name
}

// parseMetrics splits "136500 ns/op 0.055 vsec/op ..." into unit->value.
func parseMetrics(s string) (map[string]float64, error) {
	fields := strings.Fields(s)
	if len(fields)%2 != 0 {
		return nil, fmt.Errorf("odd metric fields: %q", s)
	}
	out := make(map[string]float64, len(fields)/2)
	for i := 0; i < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return nil, fmt.Errorf("bad metric value %q: %w", fields[i], err)
		}
		out[fields[i+1]] = v
	}
	return out, nil
}

func load(path string) (Report, error) {
	var rep Report
	b, err := os.ReadFile(path)
	if err != nil {
		return rep, err
	}
	err = json.Unmarshal(b, &rep)
	return rep, err
}

func compare(basePath, newPath string) (bool, error) {
	base, err := load(basePath)
	if err != nil {
		return false, err
	}
	fresh, err := load(newPath)
	if err != nil {
		return false, err
	}
	byName := make(map[string]Entry, len(fresh.Benchmarks))
	for _, e := range fresh.Benchmarks {
		byName[e.Name] = e
	}
	ok := true
	for _, b := range base.Benchmarks {
		n, found := byName[b.Name]
		if !found {
			fmt.Printf("FAIL %s: missing from new report\n", b.Name)
			ok = false
			continue
		}
		for _, metric := range gatedMetrics {
			bv, has := b.Metrics[metric]
			if !has {
				continue // baseline never recorded it; nothing to gate
			}
			nv, hasNew := n.Metrics[metric]
			if !hasNew {
				fmt.Printf("FAIL %s: %s missing from new report\n", b.Name, metric)
				ok = false
				continue
			}
			if bv > 0 && nv > bv*(1+tolerance) {
				fmt.Printf("FAIL %s: %s regressed %.4g -> %.4g (>%.0f%%)\n",
					b.Name, metric, bv, nv, tolerance*100)
				ok = false
			} else if bv > 0 && twoSided[metric] && nv < bv*(1-tolerance) {
				fmt.Printf("FAIL %s: %s drifted %.4g -> %.4g (>%.0f%% below baseline)\n",
					b.Name, metric, bv, nv, tolerance*100)
				ok = false
			} else {
				fmt.Printf("ok   %s: %s %.4g -> %.4g\n", b.Name, metric, bv, nv)
			}
		}
	}
	return ok, nil
}

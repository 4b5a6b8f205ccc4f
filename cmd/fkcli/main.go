// Command fkcli drives a simulated FaaSKeeper deployment through a script
// of commands, printing each result — a small smoke-test shell for the
// public API.
//
// Usage:
//
//	fkcli create /app hello
//	fkcli create /app/cfg v1 : get /app/cfg : set /app/cfg v2 : get /app/cfg
//	fkcli -gcp -store hybrid create /x data : ls /
//	fkcli -shards 4 multi check /a 0 ";" set /a v2 ";" create /b x
//
// Commands (separated by ":"): create PATH [DATA] [eph] [seq],
// get PATH, set PATH DATA, del PATH, ls PATH, stat PATH, watch PATH,
// multi SUBOP [";" SUBOP]... — sub-ops (separated by ";") are
// create PATH [DATA] [eph] [seq], set PATH DATA [VERSION],
// del PATH [VERSION], check PATH [VERSION].
// trace dumps the per-request span log recorded so far; requires -trace.
//
// A separate mode, `fkcli [-seed N] [-faults off|default] [-quick] chaos
// [CONFIG]`, runs the fault-injection harness (package chaos) for one
// matrix config — or all of them — and prints the checker verdict with a
// deterministic replay command on failure.
//
// -trace FILE enables the telemetry subsystem and writes a Chrome
// trace-event JSON file on exit (open it in chrome://tracing or Perfetto).
//
// -metrics FILE enables cost accounting and writes a Prometheus-text
// snapshot of the metrics registry on exit — including the fk_cost_*
// dollar series.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"faaskeeper"
	"faaskeeper/internal/obs"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout)) }

// run is the whole program: it parses args, drives one scripted session
// (or the chaos mode), prints everything to out and
// returns the exit code.
func run(args []string, out io.Writer) int {
	fs := flag.NewFlagSet("fkcli", flag.ContinueOnError)
	fs.SetOutput(out)
	gcp := fs.Bool("gcp", false, "deploy the GCP profile")
	store := fs.String("store", "object", "user store: object|kv|hybrid|mem")
	seed := fs.Int64("seed", 1, "simulation seed")
	shards := fs.Int("shards", 1, "leader write shards (1 = paper-faithful)")
	traceFile := fs.String("trace", "", "enable telemetry and write a Chrome trace-event file on exit")
	metricsFile := fs.String("metrics", "", "enable cost accounting and write a Prometheus-text registry snapshot on exit")
	faults := fs.String("faults", "default", "chaos mode fault schedule: off|default")
	quick := fs.Bool("quick", false, "chaos mode: smaller workload per scenario")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	args = fs.Args()
	if len(args) == 0 {
		fmt.Fprintln(out, "usage: fkcli [flags] CMD ARGS [: CMD ARGS]...")
		fmt.Fprintln(out, "       fkcli [-seed N] [-faults off|default] [-quick] chaos [CONFIG]")
		fs.PrintDefaults()
		return 2
	}
	if args[0] == "chaos" {
		return runChaosMode(out, args[1:], *seed, *faults, *quick)
	}

	var cmds [][]string
	var cur []string
	for _, a := range args {
		if a == ":" {
			if len(cur) > 0 {
				cmds = append(cmds, cur)
				cur = nil
			}
			continue
		}
		cur = append(cur, a)
	}
	if len(cur) > 0 {
		cmds = append(cmds, cur)
	}

	opts := faaskeeper.DeploymentOptions{
		UserStore:      faaskeeper.StoreKind(*store),
		WriteShards:    *shards,
		Telemetry:      *traceFile != "",
		CostAccounting: *metricsFile != "",
	}
	if err := opts.UserStore.Validate(); err != nil {
		fmt.Fprintln(out, "fkcli:", err)
		return 2
	}
	if *gcp {
		opts.Profile = faaskeeper.GCPProfile()
	}
	s := faaskeeper.NewSimulation(*seed)
	d := s.DeployFaaSKeeper(opts)
	exit := 0
	s.Go(func() {
		c, err := d.Connect("fkcli")
		if err != nil {
			fmt.Fprintln(out, "connect:", err)
			exit = 1
			return
		}
		defer c.Close()
		for _, cmd := range cmds {
			if err := runCmd(out, d, c, cmd); err != nil {
				fmt.Fprintf(out, "%s: %v\n", strings.Join(cmd, " "), err)
				exit = 1
			}
		}
		s.Sleep(2 * time.Second) // let late watch events print
	})
	s.Run()
	s.Shutdown()
	if *traceFile != "" {
		if err := writeTrace(out, d, *traceFile); err != nil {
			fmt.Fprintln(out, "trace:", err)
			exit = 1
		}
	}
	if *metricsFile != "" {
		if err := writeMetrics(out, d, *metricsFile); err != nil {
			fmt.Fprintln(out, "metrics:", err)
			exit = 1
		}
	}
	fmt.Fprintf(out, "-- virtual time: %v, total cost: $%.6f --\n", s.Now(), d.TotalCost())
	return exit
}

// writeTrace exports every recorded span as a Chrome trace-event file.
func writeTrace(out io.Writer, d *faaskeeper.Deployment, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	spans := d.Obs().Tracer.Spans()
	if err := obs.WriteChromeTrace(f, spans); err != nil {
		return err
	}
	fmt.Fprintf(out, "wrote %d spans to %s\n", len(spans), path)
	return nil
}

// writeMetrics dumps the registry — gauges, counters, and histogram
// summaries, cost cells included — as Prometheus text.
func writeMetrics(out io.Writer, d *faaskeeper.Deployment, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := obs.WritePrometheus(f, d.Obs().Metrics); err != nil {
		return err
	}
	fmt.Fprintf(out, "wrote metrics snapshot to %s\n", path)
	return nil
}

func runCmd(out io.Writer, d *faaskeeper.Deployment, c *faaskeeper.Client, cmd []string) error {
	if cmd[0] == "trace" {
		if !d.Obs().Tracer.Enabled() {
			return fmt.Errorf("telemetry is off; run with -trace FILE")
		}
		return obs.WriteSpanLog(out, d.Obs().Tracer.Spans())
	}
	if len(cmd) < 2 {
		return fmt.Errorf("need a path")
	}
	if cmd[0] == "multi" {
		return runMulti(out, c, cmd[1:])
	}
	op, path := cmd[0], cmd[1]
	switch op {
	case "create":
		data := ""
		var flags faaskeeper.Flags
		for _, a := range cmd[2:] {
			switch a {
			case "eph":
				flags |= faaskeeper.FlagEphemeral
			case "seq":
				flags |= faaskeeper.FlagSequential
			default:
				data = a
			}
		}
		name, err := c.Create(path, []byte(data), flags)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "created %s\n", name)
	case "get":
		data, stat, err := c.GetData(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "%s = %q (version %d, mzxid %d)\n", path, data, stat.Version, stat.Mzxid)
	case "set":
		if len(cmd) < 3 {
			return fmt.Errorf("set needs data")
		}
		stat, err := c.SetData(path, []byte(cmd[2]), -1)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "set %s (version %d)\n", path, stat.Version)
	case "del":
		if err := c.Delete(path, -1); err != nil {
			return err
		}
		fmt.Fprintf(out, "deleted %s\n", path)
	case "ls":
		kids, err := c.GetChildren(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "%s children: %v\n", path, kids)
	case "stat":
		st, err := c.Exists(path)
		if err != nil {
			return err
		}
		if st == nil {
			fmt.Fprintf(out, "%s does not exist\n", path)
		} else {
			fmt.Fprintf(out, "%s: %+v\n", path, *st)
		}
	case "watch":
		_, _, err := c.GetDataW(path, func(n faaskeeper.Notification) {
			fmt.Fprintf(out, "watch fired: %s %s (txid %d)\n", n.Event, n.Path, n.Txid)
		})
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "watching %s\n", path)
	default:
		return fmt.Errorf("unknown command %q", op)
	}
	return nil
}

// runMulti parses ";"-separated sub-ops and submits them as one atomic
// transaction, printing each sub-op's outcome.
func runMulti(out io.Writer, c *faaskeeper.Client, args []string) error {
	var ops []faaskeeper.MultiOp
	var cur []string
	flush := func() error {
		if len(cur) == 0 {
			return nil
		}
		op, err := parseSubOp(cur)
		if err != nil {
			return err
		}
		ops = append(ops, op)
		cur = nil
		return nil
	}
	for _, a := range args {
		if a == ";" {
			if err := flush(); err != nil {
				return err
			}
			continue
		}
		cur = append(cur, a)
	}
	if err := flush(); err != nil {
		return err
	}
	if len(ops) == 0 {
		return fmt.Errorf("multi needs at least one sub-op")
	}
	results, err := c.Multi(ops...)
	for i, r := range results {
		switch {
		case r.Code == "ok" && r.Txid != 0:
			fmt.Fprintf(out, "  [%d] %s %s ok (txid %d, version %d)\n", i, r.Type, r.Path, r.Txid, r.Stat.Version)
		case r.Code == "ok":
			fmt.Fprintf(out, "  [%d] %s %s ok\n", i, r.Type, r.Path)
		default:
			fmt.Fprintf(out, "  [%d] %s %s FAILED: %s\n", i, r.Type, r.Path, r.Code)
		}
	}
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "multi committed: %d ops\n", len(ops))
	return nil
}

// parseSubOp parses one sub-op token list.
func parseSubOp(tok []string) (faaskeeper.MultiOp, error) {
	if len(tok) < 2 {
		return faaskeeper.MultiOp{}, fmt.Errorf("sub-op needs a path: %v", tok)
	}
	version := func(idx int) (int32, error) {
		if len(tok) <= idx {
			return -1, nil
		}
		var v int32
		if _, err := fmt.Sscanf(tok[idx], "%d", &v); err != nil {
			return 0, fmt.Errorf("bad version %q", tok[idx])
		}
		return v, nil
	}
	switch tok[0] {
	case "create":
		data := ""
		var flags faaskeeper.Flags
		for _, a := range tok[2:] {
			switch a {
			case "eph":
				flags |= faaskeeper.FlagEphemeral
			case "seq":
				flags |= faaskeeper.FlagSequential
			default:
				data = a
			}
		}
		return faaskeeper.CreateOp(tok[1], []byte(data), flags), nil
	case "set":
		if len(tok) < 3 {
			return faaskeeper.MultiOp{}, fmt.Errorf("set needs data")
		}
		v, err := version(3)
		if err != nil {
			return faaskeeper.MultiOp{}, err
		}
		return faaskeeper.SetDataOp(tok[1], []byte(tok[2]), v), nil
	case "del":
		v, err := version(2)
		if err != nil {
			return faaskeeper.MultiOp{}, err
		}
		return faaskeeper.DeleteOp(tok[1], v), nil
	case "check":
		v, err := version(2)
		if err != nil {
			return faaskeeper.MultiOp{}, err
		}
		return faaskeeper.CheckOp(tok[1], v), nil
	}
	return faaskeeper.MultiOp{}, fmt.Errorf("unknown sub-op %q", tok[0])
}

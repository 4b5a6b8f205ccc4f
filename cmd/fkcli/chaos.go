package main

import (
	"fmt"
	"io"
	"os"

	"faaskeeper/internal/chaos"
)

// runChaosMode drives the fault-injection harness from the CLI: one
// matrix config (or all of them) at the given seed, with the standing
// fault schedule or the fault-free control arm. Prints a verdict line
// per run and, on a violation, the invariant details plus the
// deterministic replay command. Returns the process exit code.
func runChaosMode(out io.Writer, args []string, seed int64, faults string, quick bool) int {
	var sched chaos.Faults
	switch faults {
	case "off":
		sched = chaos.Quiet()
	case "default":
		sched = chaos.DefaultFaults()
	default:
		fmt.Fprintf(os.Stderr, "chaos: unknown -faults %q (want off|default)\n", faults)
		return 2
	}

	configs := chaos.Configs()
	if len(args) > 0 {
		configs = args
	}

	failed := 0
	for _, config := range configs {
		s := chaos.Scenario{Seed: seed, Config: config, Faults: sched}
		if quick {
			s.Clients = 3
			s.OpsPerClient = 10
		}
		res := chaos.Run(s)
		injected := int64(0)
		for _, n := range res.FaultCounts {
			injected += n
		}
		if res.Failed() {
			failed++
			fmt.Fprintf(out, "chaos %-8s seed=%d faults=%s: %d VIOLATIONS (%d events, %d faults, vtime %s)\n",
				config, seed, faults, len(res.Violations), res.History.Len(), injected, res.VirtualTime)
			for _, v := range res.Violations {
				fmt.Fprintf(out, "  %s\n", v)
			}
			fmt.Fprintf(out, "  replay: %s\n", res.ReplayCmd())
			continue
		}
		fmt.Fprintf(out, "chaos %-8s seed=%d faults=%s: clean (%d events, %d faults, vtime %s)\n",
			config, seed, faults, res.History.Len(), injected, res.VirtualTime)
	}
	if failed > 0 {
		return 1
	}
	return 0
}

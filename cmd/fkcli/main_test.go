package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"faaskeeper/internal/chaos"
)

var update = flag.Bool("update", false, "rewrite testdata/*.golden from the current output")

// TestGoldenSessions runs scripted sessions through run and compares
// everything they print — results, watch events, the virtual-time and
// cost footer — against testdata/<name>.golden. The simulation is
// deterministic for a seed, so the files are exact; a pipeline change that
// moves a timestamp or a dollar shows up here as a one-line diff
// (regenerate with `go test ./cmd/fkcli -update` and review it). Last moved
// when a commit began to move the groups it fires into fire records its pop
// removes: the session's `set /x again` makes no claim clear, one
// system-store write fewer, and the seeded latency stream is dealt anew
// from it, so session moves 2.800537619 → 2.855687556 vs, $0.000060 →
// $0.000059; no other session fires a watch. Earlier, when, on one
// shard, the watch claim's round began to run under the flush:
// the session's `set /x again` fires the watch on /x and reaches its flush
// without waiting for the round's system-store write, so session moves
// 2.874313101 → 2.868413195 vs ($0.000070 held); no other session fires a
// watch. Before that, when the watch claim began to ride the commit check's
// read: every write reads one system-store item fewer and the seeded
// latency stream is dealt anew, so each footer moves — session 2.855 →
// 2.878 vs, $0.000069 → $0.000071 (its watch delivery draws a slower cold
// start; over seeds 1-6 the session is as often cheaper), multi 2.980 →
// 3.092 vs, $0.000071 → $0.000070, gcp_hybrid 3.584 → 3.588 vs, $0.000029 →
// $0.000028.
func TestGoldenSessions(t *testing.T) {
	for _, tc := range []struct {
		name string
		args string
		exit int
	}{
		{"session", "create /x hello : get /x : set /x world : get /x : ls / : stat /x : watch /x : set /x again : stat /nope", 0},
		// multi() needs no flag: the default deployment commits it, on one
		// shard. /a and /a/b share one; the last multi() writes /a and /b,
		// two shards, and is answered cross_shard. Last moved 3.092476307 →
		// 2.898413596 vs ($0.000070 held) when a multi() became a chunk of
		// the leader's one lane: it answers before its pops, which the next
		// invocation runs under its flush, so the committed multi() takes
		// 208.9 ms where it took 226.8, and the seeded latency stream is
		// dealt anew for the rest of the session. Before that, 3.092471639 →
		// 3.092476307 vs when a multi()'s payload became leader-message
		// fields (about 20 B more for the committed multi(), a few µs of
		// leader-queue time), and 3.187 vs, $0.000109 → 2.980 vs, $0.000071
		// when the cross-shard path was deleted.
		{"multi", "-shards 4 create /a v1 : multi check /a 0 ; set /a v2 ; create /a/b x : get /a : multi check /a 0 ; del /a/b : multi set /a v3 ; create /b y", 1},
		{"gcp_hybrid", "-gcp -store hybrid create /x data : get /x : ls /", 0},
		// The bugfix's regression case: a store name that is no backend used
		// to deploy the object store silently (`-store dynamodb` measured
		// S3). It exits 2 before deploying, naming what it accepts.
		{"store_unknown", "-store dynamodb create /x", 2},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			var out bytes.Buffer
			if exit := run(strings.Fields(tc.args), &out); exit != tc.exit {
				t.Errorf("exit code %d, want %d", exit, tc.exit)
			}
			golden := filepath.Join("testdata", tc.name+".golden")
			if *update {
				if err := os.WriteFile(golden, out.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(out.Bytes(), want) {
				t.Errorf("fkcli %s\n--- got ---\n%s--- want (%s) ---\n%s", tc.args, out.Bytes(), golden, want)
			}
		})
	}
}

// TestQuickChaosRunsTheReplayedScenario: `-quick chaos` runs the scenario
// its replay line names, the PR smoke's size (chaos.Scenario.Quick), so the
// events and virtual time it prints are those of that scenario's Run.
func TestQuickChaosRunsTheReplayedScenario(t *testing.T) {
	const seed = 5
	res := chaos.Run(chaos.Scenario{Seed: seed, Config: "plain", Faults: chaos.DefaultFaults()}.Quick())
	var out bytes.Buffer
	run([]string{"-seed", fmt.Sprint(seed), "-quick", "chaos", "plain"}, &out)
	want := fmt.Sprintf("(%d events, ", res.History.Len())
	if !strings.Contains(out.String(), want) || !strings.Contains(out.String(), fmt.Sprintf("vtime %s)", res.VirtualTime)) {
		t.Errorf("fkcli -quick chaos plain printed %q; chaos.Run of the quick scenario has %d events, vtime %s",
			out.String(), res.History.Len(), res.VirtualTime)
	}
}

package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/*.golden from the current output")

// TestGoldenSessions runs scripted sessions through run and compares
// everything they print — results, watch events, the virtual-time and
// cost footer — against testdata/<name>.golden. The simulation is
// deterministic for a seed, so the files are exact; a pipeline change that
// moves a timestamp or a dollar shows up here as a one-line diff
// (regenerate with `go test ./cmd/fkcli -update` and review it).
func TestGoldenSessions(t *testing.T) {
	for _, tc := range []struct {
		name string
		args string
		exit int
	}{
		{"session", "create /x hello : get /x : set /x world : get /x : ls / : stat /x : watch /x : set /x again : stat /nope", 0},
		// multi() needs no flag: the default deployment commits it.
		{"multi", "-shards 4 create /a v1 : multi check /a 0 ; set /a v2 ; create /b x : get /a : multi check /a 0 ; del /b", 1},
		{"gcp_hybrid", "-gcp -store hybrid create /x data : get /x : ls /", 0},
		// The bugfix's regression case: a store name that is no backend used
		// to deploy the object store silently (`-store dynamodb` measured
		// S3). It exits 2 before deploying, naming what it accepts.
		{"store_unknown", "-store dynamodb create /x", 2},
		// Also input from outside the program: more shards than the live
		// shard map can address is a panic in the deployment's defaults, so
		// it exits 2 before deploying, naming the cap.
		{"shards_over_cap", "-dynamic -shards 100 create /x v", 2},
		{"reshard_split", "-dynamic -shards 2 create /hot x : create /hot/a y : reshard split /hot 4 : set /hot/a z : reshard map", 0},
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

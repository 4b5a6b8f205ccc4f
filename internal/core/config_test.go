package core

// Tests of the deployment's configuration surface: which switches exist,
// that each is documented, that a value naming nothing is rejected, and
// that the per-phase latencies live in the one metrics registry.

import (
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"

	"faaskeeper/internal/obs"
	"faaskeeper/internal/sim"
)

func exportedFields(v any) []string {
	t := reflect.TypeOf(v)
	var names []string
	for i := 0; i < t.NumField(); i++ {
		if f := t.Field(i); f.IsExported() {
			names = append(names, f.Name)
		}
	}
	return names
}

// TestConfigSurfacePinned pins the exact exported fields of Config and
// AutoShard. Config is the public faaskeeper.DeploymentOptions, and every
// independent switch doubles the configurations tests and benchmarks must
// cover — so growing the surface is a decision, not a side effect.
func TestConfigSurfacePinned(t *testing.T) {
	const rule = "a new Config / AutoShard field needs two non-test callers " +
		"(bench preset, chaos config, experiment, cmd) that set it to different values; " +
		"with one value in use make it a constant, and if the code can work the value " +
		"out from its inputs do that instead. A field that goes is deleted here too, " +
		"with its row of README's Configuration table"
	for _, tc := range []struct {
		typ  string
		got  []string
		want string
	}{
		{"Config", exportedFields(Config{}), "Profile UserStore ExtraRegions " +
			"FollowerMemMB LeaderMemMB HeartbeatMemMB Arch VCPU " +
			"HeartbeatEvery HeartbeatTimeout Retries " +
			"WriteShards DynamicShards AutoShard BatchWrites MaxBatch " +
			"CacheMode CacheCapacityB ClientCacheCapacityB CacheTTL CacheWarmK " +
			"WatchFanout FanoutDebounce WireCodec " +
			"Telemetry CostAccounting CostBudgetUSDPerHour CostBudgetWindow"},
		{"AutoShard", exportedFields(AutoShard{}),
			"Enabled Interval SplitDepth Sustain SplitWays MaxShards MergeIdle CostAware"},
	} {
		if got := strings.Join(tc.got, " "); got != tc.want {
			t.Errorf("%s's exported fields changed (%d now):\n got  %s\n want %s\nrule: %s",
				tc.typ, len(tc.got), got, tc.want, rule)
		}
	}
}

// TestReadmeListsEveryConfigField: README's "Configuration" table is the
// one place a switch's default, paper value and setters are written down;
// every Config field has a row `| `Name` |` there and every AutoShard
// field a row `| `AutoShard.Name` |`.
func TestReadmeListsEveryConfigField(t *testing.T) {
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, table, found := strings.Cut(string(readme), "\n## Configuration\n")
	if !found {
		t.Fatal(`README.md has no "## Configuration" section`)
	}
	if i := strings.Index(table, "\n## "); i >= 0 {
		table = table[:i]
	}
	rows := exportedFields(Config{})
	for _, f := range exportedFields(AutoShard{}) {
		rows = append(rows, "AutoShard."+f)
	}
	for _, name := range rows {
		if !strings.Contains(table, "\n| `"+name+"` |") {
			t.Errorf("README.md's Configuration table has no row for `%s`", name)
		}
	}
	// The converse: a row naming a field that no longer exists is stale.
	known := map[string]bool{}
	for _, name := range rows {
		known[name] = true
	}
	for _, line := range strings.Split(table, "\n") {
		if !strings.HasPrefix(line, "| `") {
			continue
		}
		name, _, _ := strings.Cut(strings.TrimPrefix(line, "| `"), "`")
		if !known[name] {
			t.Errorf("README.md's Configuration table documents `%s`, which is not a field", name)
		}
	}
}

// TestUnknownUserStoreRejected: newUserStore's default branch used to take
// any string, so Config{UserStore: "dynamodb"} deployed — and measured —
// the object store. defaults() now fails the way an unknown CacheMode
// does, naming what it accepts.
func TestUnknownUserStoreRejected(t *testing.T) {
	for _, kind := range []StoreKind{"", StoreObject, StoreKV, StoreHybrid, StoreMem} {
		k := sim.NewKernel(1)
		NewDeployment(k, Config{UserStore: kind})
		k.Shutdown()
	}
	for _, kind := range []StoreKind{"dynamodb", "s3", "KV", "object "} {
		kind := kind
		func() {
			k := sim.NewKernel(1)
			defer k.Shutdown()
			defer func() {
				msg := fmt.Sprint(recover())
				for _, want := range []string{fmt.Sprintf("%q", string(kind)), "object", "kv", "hybrid", "mem"} {
					if !strings.Contains(msg, want) {
						t.Errorf("UserStore %q: panic %q does not name %s", kind, msg, want)
					}
				}
			}()
			NewDeployment(k, Config{UserStore: kind})
			t.Errorf("UserStore %q deployed", kind)
		}()
	}
}

// TestPhasesLiveInRegistry: the per-phase latencies behind Fig. 9-12 and
// Table 3 have one store, the obs registry, behind the one Telemetry
// switch. On, Deployment.Phase hands out the registry's own histogram and
// ResetMetrics clears it; off, nothing is recorded and recording costs
// nothing.
func TestPhasesLiveInRegistry(t *testing.T) {
	const writes = 5
	r := newPipeRig(t, 3, Config{}, nil) // the rig turns Telemetry on
	r.k.Go("writer", func() {
		s := r.open("w")
		s.do(OpCreate, "/n", "0")
		for i := 1; i < writes; i++ {
			s.do(OpSetData, "/n", "x")
		}
	})
	r.run()
	pop := r.d.Phase("leader.pop")
	if pop == nil || pop.N() != writes {
		t.Fatalf("leader.pop: %v, want %d samples", pop, writes)
	}
	if reg := r.d.Obs.Metrics.Hist(obs.Key{Component: "phase", Name: "leader.pop"}); reg != pop {
		t.Errorf("Phase(leader.pop) = %p, the registry's histogram is %p: a second latency store", pop, reg)
	}
	r.d.ResetMetrics()
	if s := r.d.Phase("leader.pop"); s != nil {
		t.Errorf("ResetMetrics left %d leader.pop samples", s.N())
	}

	k, d := newTestDeployment(3, Config{})
	defer k.Shutdown()
	if allocs := testing.AllocsPerRun(100, func() { d.recordPhase("leader.pop", sim.Ms(1)) }); allocs != 0 {
		t.Errorf("recordPhase with Telemetry off: %.0f allocs/op, want 0", allocs)
	}
	if s := d.Phase("leader.pop"); s != nil {
		t.Errorf("Telemetry off recorded %d samples", s.N())
	}
	if keys := d.Obs.Metrics.HistKeys(); len(keys) != 0 {
		t.Errorf("Telemetry off left histograms in the registry: %v", keys)
	}
}

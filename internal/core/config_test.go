package core

// Tests of the deployment's configuration surface: which switches exist,
// that each is documented, that a value naming nothing is rejected, and
// that the per-phase latencies live in the one metrics registry.

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
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

// TestConfigSurfacePinned pins the exact exported fields of Config. Config
// is the public faaskeeper.DeploymentOptions, and every independent switch
// doubles the configurations tests and benchmarks must cover — so growing
// the surface is a decision, not a side effect.
func TestConfigSurfacePinned(t *testing.T) {
	const rule = "a new Config field needs two non-test callers " +
		"(bench preset, chaos config, experiment, cmd) that set it to different values; " +
		"with one value in use make it a constant, and if the code can work the value " +
		"out from its inputs do that instead. A field that goes is deleted here too, " +
		"with its row of README's Configuration table"
	const want = "Profile UserStore ExtraRegions " +
		"FollowerMemMB LeaderMemMB HeartbeatMemMB Arch VCPU " +
		"HeartbeatEvery Retries " +
		"WriteShards DynamicShards BatchWrites MaxBatch " +
		"CacheMode CacheCapacityB ClientCacheCapacityB " +
		"WatchFanout FanoutDebounce WireCodec " +
		"Telemetry CostAccounting CostBudgetUSDPerHour"
	fields := exportedFields(Config{})
	if got := strings.Join(fields, " "); got != want {
		t.Errorf("Config's exported fields changed (%d now):\n got  %s\n want %s\nrule: %s",
			len(fields), got, want, rule)
	}
	// One field is one settable value: a struct of knobs would grow the
	// surface without growing this list.
	for i, typ := 0, reflect.TypeOf(Config{}); i < typ.NumField(); i++ {
		if f := typ.Field(i); f.Type.Kind() == reflect.Struct {
			t.Errorf("Config.%s is a struct: each of its fields is a switch of its own\nrule: %s", f.Name, rule)
		}
	}
}

// testOnlyFields are the Config fields no bench preset, chaos config,
// experiment, command or example sets, each with why it stays a field.
var testOnlyFields = map[string]string{
	"ExtraRegions":         "the paper's multi-region replication; the region set is a deployment setting",
	"CostBudgetUSDPerHour": "the budget is the operator's number, not the code's; ROADMAP 5(c) mirrors the monitor for latency",
	"FanoutDebounce":       "the end-to-end coalescing test needs a window wider than a write round trip",
}

// TestEveryConfigFieldHasANonTestSetter is the rule of
// TestConfigSurfacePinned applied to the fields that already exist: a field
// only _test.go files set guards code no caller reaches. It reads the
// callers' source — bench/, cmd/, examples/, internal/chaos,
// internal/experiments — for `Field:` in a literal, `.Field =`, or the
// field's name as a string in bench/presets.go (which sets fields by name).
func TestEveryConfigFieldHasANonTestSetter(t *testing.T) {
	var src, presets strings.Builder
	for _, dir := range []string{"bench", "cmd", "examples", "internal/chaos", "internal/experiments"} {
		err := filepath.WalkDir(filepath.Join("../..", dir), func(path string, e fs.DirEntry, err error) error {
			if err != nil || e.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return err
			}
			b, err := os.ReadFile(path)
			src.Write(b)
			if filepath.Base(path) == "presets.go" {
				presets.Write(b)
			}
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	for _, f := range exportedFields(Config{}) {
		set := regexp.MustCompile(`\b`+f+`:|\.`+f+`\s*=[^=]`).MatchString(src.String()) ||
			strings.Contains(presets.String(), `"`+f+`"`)
		reason, allowed := testOnlyFields[f]
		switch {
		case !set && !allowed:
			t.Errorf("Config.%s has no non-test setter: delete it with the code it guards, "+
				"or make its one value a constant", f)
		case set && allowed:
			t.Errorf("Config.%s now has a non-test setter: drop it from testOnlyFields (%s)", f, reason)
		}
	}
	for f := range testOnlyFields {
		if _, ok := reflect.TypeOf(Config{}).FieldByName(f); !ok {
			t.Errorf("testOnlyFields names %s, which is not a Config field", f)
		}
	}
}

// TestReadmeListsEveryConfigField: README's "Configuration" table is the
// one place a switch's default, paper value and setters are written down;
// every Config field has a row `| `Name` |` there.
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

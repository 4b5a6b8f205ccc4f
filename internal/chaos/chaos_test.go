package chaos

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

var (
	flagSeed = flag.Int64("chaos.seed", -1,
		"replay one exact scenario seed instead of the matrix")
	flagSeeds = flag.Int("chaos.seeds", 4,
		"seeds per config in matrix mode")
	flagConfig = flag.String("chaos.config", "",
		"restrict to one config name (see Configs)")
	flagQuick = flag.Bool("chaos.quick", false,
		"smaller workloads for PR-gating smoke runs")
)

// matrixSeedBase spaces matrix seeds so every (seed index, config) cell is
// a distinct RNG stream; replay uses the reported seed directly.
const matrixSeedBase = 1000

func scenarioFor(seed int64, config string) Scenario {
	s := Scenario{
		Seed:   seed,
		Config: config,
		Faults: DefaultFaults(),
	}
	if *flagQuick {
		s = s.Quick()
	}
	return s
}

func runScenario(t *testing.T, s Scenario) {
	t.Helper()
	res := Run(s)
	if res.History.Len() == 0 {
		t.Fatalf("seed %d config %s recorded no events", s.Seed, s.Config)
	}
	if !res.Failed() {
		return
	}
	for _, v := range res.Violations {
		t.Errorf("%s", v)
	}
	t.Errorf("seed %d config %s: %d violation(s); replay with: %s",
		s.Seed, s.Config, len(res.Violations), res.ReplayCmd())
	writeArtifacts(t, res)
}

// writeArtifacts dumps the failing run's history, fault schedule, and
// violations where CI can pick them up ($CHAOS_ARTIFACT_DIR, if set).
func writeArtifacts(t *testing.T, res *Result) {
	t.Helper()
	dir := os.Getenv("CHAOS_ARTIFACT_DIR")
	if dir == "" {
		return
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Logf("artifact dir: %v", err)
		return
	}
	base := fmt.Sprintf("chaos-%s-seed%d", res.Scenario.Config, res.Scenario.Seed)
	hf, err := os.Create(filepath.Join(dir, base+".history.jsonl"))
	if err == nil {
		_ = res.History.WriteJSONL(hf)
		hf.Close()
	}
	report := struct {
		Scenario   Scenario         `json:"scenario"`
		Replay     string           `json:"replay"`
		Violations []Violation      `json:"violations"`
		Faults     map[string]int64 `json:"fault_counts"`
		Schedule   []string         `json:"schedule"`
	}{res.Scenario, res.ReplayCmd(), res.Violations, res.FaultCounts, res.Schedule}
	if data, err := json.MarshalIndent(report, "", "  "); err == nil {
		_ = os.WriteFile(filepath.Join(dir, base+".report.json"), data, 0o644)
	}
	t.Logf("artifacts written under %s/%s.*", dir, base)
}

// TestChaos is the seed-matrix entry point: N seeds per deployment config
// under the standing fault schedule, or — with -chaos.seed — one exact
// replay of a reported failure.
func TestChaos(t *testing.T) {
	forEachScenario(t, runScenario)
}

// TestChaosWatchFiresOnFirstChange runs the seed matrix against
// WatchFiredLate, ROADMAP 1(f)'s rule that a one-shot watch fires for the
// first acked set after its arming read. The configurations that claim
// watches before the flush still break it (1(f) has the counts), so Check
// does not carry the rule and this test runs only when named:
//
//	go test ./internal/chaos -run TestChaosWatchFiresOnFirstChange -chaos.seeds=1000 -count=1
func TestChaosWatchFiresOnFirstChange(t *testing.T) {
	if !strings.Contains(flag.Lookup("test.run").Value.String(), "TestChaosWatchFiresOnFirstChange") {
		t.Skip("known late fires with claim-before-flush (ROADMAP 1(f), not fixed)")
	}
	late := map[string]int{}
	forEachScenario(t, func(t *testing.T, s Scenario) {
		res := Run(s)
		vs := WatchFiredLate(res.History)
		if len(vs) == 0 {
			return
		}
		late[s.Config]++
		for _, v := range vs {
			t.Errorf("%s", v)
		}
		t.Errorf("seed %d config %s: replay with: %s", s.Seed, s.Config,
			strings.Replace(res.ReplayCmd(), "-run TestChaos ", "-run TestChaosWatchFiresOnFirstChange ", 1))
	})
	t.Logf("seeds with a late fire, per config: %v", late)
}

// forEachScenario runs fn on every scenario the chaos flags select: the
// seed matrix of every config (or of -chaos.config), or one -chaos.seed.
func forEachScenario(t *testing.T, fn func(*testing.T, Scenario)) {
	configs := Configs()
	if *flagConfig != "" {
		if _, ok := DeployConfig(*flagConfig); !ok {
			t.Fatalf("unknown -chaos.config %q (have %s)",
				*flagConfig, strings.Join(Configs(), ", "))
		}
		configs = []string{*flagConfig}
	}
	if *flagSeed >= 0 {
		for _, cfg := range configs {
			cfg := cfg
			t.Run(fmt.Sprintf("%s/seed%d", cfg, *flagSeed), func(t *testing.T) {
				fn(t, scenarioFor(*flagSeed, cfg))
			})
		}
		return
	}
	for _, cfg := range configs {
		cfg := cfg
		t.Run(cfg, func(t *testing.T) {
			for i := 0; i < *flagSeeds; i++ {
				seed := matrixSeedBase*int64(i+1) + int64(len(cfg))
				t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
					fn(t, scenarioFor(seed, cfg))
				})
			}
		})
	}
}

// TestReplayCmdReproducesScenario: running the flags a failure prints must
// build the scenario that failed — its workload size included.
func TestReplayCmdReproducesScenario(t *testing.T) {
	defer func(q bool) { *flagQuick = q }(*flagQuick)
	for _, want := range []Scenario{
		{Seed: 5007, Config: "caching", Faults: DefaultFaults()},
		Scenario{Seed: 3003, Config: "txn", Faults: DefaultFaults()}.Quick(),
	} {
		want = want.withDefaults() // as Run records it
		cmd := (&Result{Scenario: want}).ReplayCmd()
		fs := flag.NewFlagSet("replay", flag.ContinueOnError)
		seed := fs.Int64("chaos.seed", -1, "")
		config := fs.String("chaos.config", "", "")
		quick := fs.Bool("chaos.quick", false, "")
		fs.VisitAll(func(f *flag.Flag) {
			if flag.Lookup(f.Name) == nil {
				t.Errorf("TestChaos has no -%s flag", f.Name)
			}
		})
		if err := fs.Parse(strings.Fields(cmd[strings.Index(cmd, "-chaos."):])); err != nil {
			t.Fatalf("%q: %v", cmd, err)
		}
		*flagQuick = *quick
		if got := scenarioFor(*seed, *config).withDefaults(); !reflect.DeepEqual(got, want) {
			t.Errorf("%q replays %+v, want %+v", cmd, got, want)
		}
	}
}

// TestChaosQuietControl runs the workload with every fault off: the
// harness and checker themselves must be clean before a failure under
// faults means anything.
func TestChaosQuietControl(t *testing.T) {
	for _, cfg := range Configs() {
		cfg := cfg
		t.Run(cfg, func(t *testing.T) {
			s := scenarioFor(42, cfg)
			s.Faults = Quiet()
			runScenario(t, s)
		})
	}
}

// TestChaosDeterministicReplay: the same (seed, config) must produce the
// same history and the same fault schedule, event for event — otherwise
// a reported failing seed cannot be debugged.
func TestChaosDeterministicReplay(t *testing.T) {
	cfg := "batching"
	if *flagQuick {
		cfg = "plain"
	}
	a := Run(scenarioFor(7, cfg))
	b := Run(scenarioFor(7, cfg))
	if a.History.Len() != b.History.Len() {
		t.Fatalf("replay diverged: %d events vs %d", a.History.Len(), b.History.Len())
	}
	for i := range a.History.Events {
		if !reflect.DeepEqual(a.History.Events[i], b.History.Events[i]) {
			t.Fatalf("replay diverged at event %d:\n  %+v\n  %+v",
				i, a.History.Events[i], b.History.Events[i])
		}
	}
	if !reflect.DeepEqual(a.FaultCounts, b.FaultCounts) {
		t.Fatalf("fault schedules diverged: %v vs %v", a.FaultCounts, b.FaultCounts)
	}
}

// TestChaosInjectsFaults guards against the harness silently running
// fault-free: under the default schedule at least crashes and duplicate
// deliveries must actually have been injected.
func TestChaosInjectsFaults(t *testing.T) {
	res := Run(scenarioFor(11, "plain"))
	var crashes, redelivers int64
	for kind, n := range res.FaultCounts {
		switch {
		case strings.HasPrefix(kind, "crash."):
			crashes += n
		case strings.HasPrefix(kind, "redeliver."):
			redelivers += n
		}
	}
	if crashes == 0 || redelivers == 0 {
		t.Fatalf("default schedule injected crashes=%d redelivers=%d; counts: %v",
			crashes, redelivers, res.FaultCounts)
	}
	if res.Failed() {
		for _, v := range res.Violations {
			t.Errorf("%s", v)
		}
	}
}

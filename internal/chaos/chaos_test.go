package chaos

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
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
	flagKnown = flag.String("chaos.known", "",
		"known-red list (ci/chaos_known.json): a listed violation is logged, not failed, and a listed seed that passes fails as stale")
)

// matrixSeedBase spaces matrix seeds so every (seed index, config) cell is
// a distinct RNG stream: seed = matrixSeedBase*(i+1) + the config's row
// index in Configs(). Replay uses the reported seed directly.
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

func runScenario(t *testing.T, s Scenario, listed []knownRed) *Result {
	t.Helper()
	res := Run(s)
	if res.History.Len() == 0 {
		t.Fatalf("seed %d config %s recorded no events", s.Seed, s.Config)
	}
	unlisted, stale := triage(res.Violations, listed)
	for _, v := range res.Violations {
		if !slices.Contains(unlisted, v) {
			t.Logf("known red: %s", v)
		}
	}
	for _, k := range stale {
		t.Errorf("stale known-red entry: seed %d config %s no longer breaks %s (ROADMAP %s); delete it from the list",
			k.Seed, k.Config, k.Rule, k.Roadmap)
	}
	if len(unlisted) == 0 {
		return res
	}
	for _, v := range unlisted {
		t.Errorf("%s", v)
	}
	t.Errorf("seed %d config %s: %d violation(s); replay with: %s",
		s.Seed, s.Config, len(unlisted), res.ReplayCmd())
	writeArtifacts(t, res)
	return res
}

// knownRed is one entry of the -chaos.known list: a scenario knowingly left
// red, the invariant it breaks, and the ROADMAP item that owns the fix.
type knownRed struct {
	Config  string `json:"config"`
	Seed    int64  `json:"seed"`
	Quick   bool   `json:"quick"`
	Rule    string `json:"rule"`
	Roadmap string `json:"roadmap"`
}

// loadKnown reads the known-red list at path (none when path is empty).
func loadKnown(t *testing.T, path string) []knownRed {
	t.Helper()
	if path == "" {
		return nil
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("-chaos.known: %v", err)
	}
	var list struct {
		Known []knownRed `json:"known"`
	}
	if err := json.Unmarshal(data, &list); err != nil {
		t.Fatalf("-chaos.known %s: %v", path, err)
	}
	for _, k := range list.Known {
		if _, ok := DeployConfig(k.Config); !ok || k.Seed <= 0 || k.Rule == "" || k.Roadmap == "" {
			t.Fatalf("-chaos.known %s: entry %+v needs a config, a seed, a rule and a ROADMAP item", path, k)
		}
	}
	return list.Known
}

// triage splits a run's violations against the known-red entries listed for
// its scenario: the violations whose rule no entry lists, and the entries
// whose rule the run no longer breaks.
func triage(vs []Violation, listed []knownRed) (unlisted []Violation, stale []knownRed) {
	for _, v := range vs {
		if !slices.ContainsFunc(listed, func(k knownRed) bool { return k.Rule == v.Invariant }) {
			unlisted = append(unlisted, v)
		}
	}
	for _, k := range listed {
		if !slices.ContainsFunc(vs, func(v Violation) bool { return v.Invariant == k.Rule }) {
			stale = append(stale, k)
		}
	}
	return unlisted, stale
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
// replay of a reported failure. With -chaos.known, a violation the list
// names for its (config, seed, workload size) is logged instead of failed.
func TestChaos(t *testing.T) {
	known := loadKnown(t, *flagKnown)
	forEachScenario(t, func(t *testing.T, s Scenario) {
		var listed []knownRed
		for _, k := range known {
			if k.Config == s.Config && k.Seed == s.Seed && k.Quick == *flagQuick {
				listed = append(listed, k)
			}
		}
		runScenario(t, s, listed)
	})
}

// TestChaosCachingObjectAsOfItsTxid replays, full size, the four caching
// seeds the known-red list carried for ROADMAP 1(a) (mzxid-regression on
// /s1). The leader used to build a set_data's user-store object from the
// control record its commit check read, which a later child create's commit
// may already have raised: the object of an earlier txid carried the later
// pzxid, a cached read took that as its freshness, passed the floor a newer
// write's invalidation had set, and served a session the value before the
// one it had written. Every object is now the follower's snapshot as of its
// own txid (core.buildUserNode).
func TestChaosCachingObjectAsOfItsTxid(t *testing.T) {
	for _, seed := range []int64{326007, 1140007, 1358007, 1633007} {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			runScenario(t, Scenario{Seed: seed, Config: "caching", Faults: DefaultFaults()}, nil)
		})
	}
}

// TestChaosKnownList: the committed known-red list parses, names real
// configs and no scenario twice for one rule, and triage logs exactly the
// listed rule, fails an unlisted one, and flags a listed rule that no
// longer breaks as stale.
func TestChaosKnownList(t *testing.T) {
	known := loadKnown(t, "../../ci/chaos_known.json")
	seen := map[knownRed]bool{}
	for _, k := range known {
		if seen[k] {
			t.Errorf("%+v is listed twice", k)
		}
		seen[k] = true
	}

	listed := []knownRed{{Config: "caching", Seed: 7, Rule: "mzxid-regression", Roadmap: "1(a)"}}
	regress := Violation{Invariant: "mzxid-regression", Path: "/s1"}
	lost := Violation{Invariant: "lost-watch", Path: "/w"}
	for _, tc := range []struct {
		name     string
		vs       []Violation
		listed   []knownRed
		unlisted []Violation
		stale    []knownRed
	}{
		{"listed rule is logged", []Violation{regress, regress}, listed, nil, nil},
		{"unlisted rule fails", []Violation{regress, lost}, listed, []Violation{lost}, nil},
		{"listed seed that passes is stale", nil, listed, nil, listed},
		{"unlisted seed fails", []Violation{regress}, nil, []Violation{regress}, nil},
	} {
		unlisted, stale := triage(tc.vs, tc.listed)
		if !slices.Equal(unlisted, tc.unlisted) || !slices.Equal(stale, tc.stale) {
			t.Errorf("%s: triage = %v unlisted, %v stale; want %v, %v", tc.name, unlisted, stale, tc.unlisted, tc.stale)
		}
	}
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
		row := int64(slices.Index(Configs(), cfg))
		t.Run(cfg, func(t *testing.T) {
			for i := 0; i < *flagSeeds; i++ {
				seed := matrixSeedBase*int64(i+1) + row
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
// harness and checker themselves must be clean, nothing injected, and no
// operation may end in an indeterminate error (a system error or a
// timeout), before a failure under faults means anything.
func TestChaosQuietControl(t *testing.T) {
	for _, cfg := range Configs() {
		cfg := cfg
		t.Run(cfg, func(t *testing.T) {
			s := scenarioFor(42, cfg)
			s.Faults = Quiet()
			res := runScenario(t, s, nil)
			if len(res.FaultCounts) != 0 {
				t.Errorf("fault-free control injected faults: %v", res.FaultCounts)
			}
			for _, e := range res.History.Events {
				if e.Err != "" && !e.Definite {
					t.Errorf("fault-free control: %s %s %s %s: indeterminate error %q",
						e.Session, e.Kind, e.Op, e.Path, e.Err)
				}
			}
		})
	}
}

// TestNightlyRunsEveryConfig: the nightly workflow's job matrix lists
// exactly Configs(), in order, so a new matrix row is searched nightly.
func TestNightlyRunsEveryConfig(t *testing.T) {
	data, err := os.ReadFile("../../.github/workflows/chaos-nightly.yml")
	if err != nil {
		t.Fatal(err)
	}
	var listed []string
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(strings.TrimSpace(line), "config: ["); ok {
			for _, name := range strings.Split(strings.TrimSuffix(v, "]"), ",") {
				listed = append(listed, strings.TrimSpace(name))
			}
		}
	}
	if !slices.Equal(listed, Configs()) {
		t.Errorf("chaos-nightly.yml runs %v, Configs() is %v", listed, Configs())
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

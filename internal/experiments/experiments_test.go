package experiments

import (
	"strconv"
	"strings"
	"testing"
)

func TestRegistryComplete(t *testing.T) {
	want := []string{
		"tab1", "fig4a", "fig4b", "fig5", "tab6a", "fig6b",
		"fig7a", "fig7b", "fig7c", "fig8", "fig9", "fig10",
		"tab3", "fig11", "fig12", "fig13", "tab4", "fig14", "sec532x",
		"ablations", "sharding", "caching", "batching", "txn",
		"telemetry", "chaos", "cost",
	}
	for _, id := range want {
		if _, ok := ByID(id); !ok {
			t.Errorf("experiment %s not registered", id)
		}
	}
	if len(All()) != len(want) {
		t.Errorf("registered %d experiments, want %d", len(All()), len(want))
	}
	if _, ok := ByID("nope"); ok {
		t.Error("ByID accepted unknown id")
	}
	if len(IDs()) != len(want) {
		t.Error("IDs incomplete")
	}
}

func TestReportRender(t *testing.T) {
	r := &Report{ID: "x", Title: "T", Ref: "Fig X"}
	s := r.AddSection("cap", []string{"a", "bb"})
	s.AddRow("1", "2")
	s.AddRow("333", "4")
	r.Note("note %d", 7)
	out := r.Render()
	for _, want := range []string{"=== x — T (Fig X) ===", "cap", "a", "bb", "333", "note 7"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

// runQuick executes an experiment in quick mode and sanity-checks the
// report structure.
func runQuick(t *testing.T, id string) *Report {
	t.Helper()
	e, ok := ByID(id)
	if !ok {
		t.Fatalf("unknown experiment %s", id)
	}
	rep := e.Run(RunConfig{Seed: 42, Quick: true})
	if rep == nil {
		t.Fatalf("%s returned nil report", id)
	}
	if len(rep.Sections) == 0 {
		t.Fatalf("%s has no sections", id)
	}
	for _, s := range rep.Sections {
		if len(s.Rows) == 0 {
			t.Fatalf("%s section %q has no rows", id, s.Caption)
		}
		for _, row := range s.Rows {
			if len(row) == 0 {
				t.Fatalf("%s has an empty row", id)
			}
		}
	}
	if out := rep.Render(); len(out) < 50 {
		t.Fatalf("%s render too short", id)
	}
	return rep
}

func TestTab1AndTab4AndFig4aAndFig14(t *testing.T) {
	runQuick(t, "tab1")
	rep := runQuick(t, "tab4")
	found := false
	for _, s := range rep.Sections {
		for _, row := range s.Rows {
			if row[0] == "writes (standard)" && strings.HasPrefix(row[1], "$1.1") {
				found = true
			}
		}
	}
	if !found {
		t.Error("tab4 worked example for standard writes not ~$1.12")
	}
	runQuick(t, "fig4a")
	rep14 := runQuick(t, "fig14")
	if len(rep14.Sections) != 3 {
		t.Errorf("fig14 should have 3 read-mix panels, got %d", len(rep14.Sections))
	}
}

func TestFig4bShape(t *testing.T) {
	rep := runQuick(t, "fig4b")
	// S3 section: cross-region read at 1 kB must exceed local read by >100ms.
	s3 := rep.Sections[0]
	first := s3.Rows[0]
	local, _ := strconv.ParseFloat(first[2], 64)
	cross, _ := strconv.ParseFloat(first[4], 64)
	if cross-local < 100 {
		t.Errorf("cross-region penalty too small: %v vs %v", cross, local)
	}
}

func TestTab6aShape(t *testing.T) {
	rep := runQuick(t, "tab6a")
	rows := rep.Sections[0].Rows
	vals := map[string]float64{}
	for _, row := range rows {
		p50, err := strconv.ParseFloat(row[3], 64)
		if err != nil {
			t.Fatalf("bad p50 in %v", row)
		}
		vals[row[0]+"/"+row[1]] = p50
	}
	if vals["Timed lock acquire/1kB"] <= vals["Regular DynamoDB write/1kB"] {
		t.Error("lock acquire should cost more than a plain write")
	}
	if vals["Timed lock acquire/64kB"] < 5*vals["Timed lock acquire/1kB"] {
		t.Error("64kB lock should be much slower than 1kB lock")
	}
	// Conditional surcharge ~2.5 ms at 1 kB.
	d := vals["Timed lock acquire/1kB"] - vals["Regular DynamoDB write/1kB"]
	if d < 1 || d > 6 {
		t.Errorf("conditional surcharge = %.2f ms, want ~2.5", d)
	}
}

func TestFig6bEfficiency(t *testing.T) {
	rep := runQuick(t, "fig6b")
	rows := rep.Sections[0].Rows
	last := rows[len(rows)-1]
	std, _ := strconv.ParseFloat(last[1], 64)
	lck, _ := strconv.ParseFloat(last[3], 64)
	if std == 0 || lck == 0 {
		t.Fatalf("zero throughput: %v", last)
	}
	eff := lck / std
	if eff < 0.7 || eff > 1.0 {
		t.Errorf("locking efficiency = %.2f, want ~0.84", eff)
	}
}

func TestFig7aOrderings(t *testing.T) {
	rep := runQuick(t, "fig7a")
	p50 := map[string]float64{}
	for _, row := range rep.Sections[0].Rows {
		if row[1] == "64B" {
			v, _ := strconv.ParseFloat(row[3], 64)
			p50[row[0]] = v
		}
	}
	if !(p50["SQS FIFO"] < p50["Direct"]) {
		t.Errorf("FIFO (%v) should beat direct (%v) at p50, as in the paper", p50["SQS FIFO"], p50["Direct"])
	}
	if !(p50["DynamoDB Stream"] > 4*p50["SQS FIFO"]) {
		t.Errorf("streams (%v) should be far slower than FIFO (%v)", p50["DynamoDB Stream"], p50["SQS FIFO"])
	}
}

func TestFig7bFIFOSaturates(t *testing.T) {
	rep := runQuick(t, "fig7b")
	rows := rep.Sections[0].Rows
	last := rows[len(rows)-1] // 200 offered
	fifo, _ := strconv.ParseFloat(last[3], 64)
	std, _ := strconv.ParseFloat(last[1], 64)
	if fifo > 160 {
		t.Errorf("FIFO did not saturate: %v op/s at 200 offered", fifo)
	}
	if std < fifo {
		t.Errorf("standard queue (%v) should outrun FIFO (%v)", std, fifo)
	}
}

func TestFig8Orderings(t *testing.T) {
	rep := runQuick(t, "fig8")
	aws := rep.Sections[0]
	row := aws.Rows[0] // smallest size
	ddb, _ := strconv.ParseFloat(row[1], 64)
	s3, _ := strconv.ParseFloat(row[2], 64)
	redis, _ := strconv.ParseFloat(row[3], 64)
	zkv, _ := strconv.ParseFloat(row[5], 64)
	if !(redis < ddb && ddb < s3) {
		t.Errorf("expected redis < ddb < s3 on small reads: %v %v %v", redis, ddb, s3)
	}
	if redis > 3*zkv+1 {
		t.Errorf("in-memory store (%v ms) should be near ZooKeeper (%v ms)", redis, zkv)
	}
}

func TestFig9Orderings(t *testing.T) {
	rep := runQuick(t, "fig9")
	lat := rep.Sections[0]
	small := lat.Rows[0]
	fk2048, _ := strconv.ParseFloat(small[3], 64)
	zkv, _ := strconv.ParseFloat(small[4], 64)
	if fk2048 < 5*zkv {
		t.Errorf("FaaSKeeper writes (%v ms) should be much slower than ZooKeeper (%v ms)", fk2048, zkv)
	}
	if fk2048 < 40 || fk2048 > 400 {
		t.Errorf("FK write median %v ms out of the paper's ballpark (~100 ms)", fk2048)
	}
	// Cost split: storage fraction 40-80%.
	costs := rep.Sections[2]
	for _, row := range costs.Rows {
		sys := parsePct(row[2])
		user := parsePct(row[3])
		q := parsePct(row[1])
		if sys+user+q < 35 || sys+user > 98 {
			t.Errorf("storage+queue share out of band in %v", row)
		}
	}
}

func parsePct(s string) float64 {
	v, _ := strconv.ParseFloat(strings.TrimSuffix(s, "%"), 64)
	return v
}

func TestFig10PushAndUpdateDominate(t *testing.T) {
	rep := runQuick(t, "fig10")
	// In every section, leader.update must be the largest leader phase at
	// large sizes; follower.push significant.
	found := false
	for _, s := range rep.Sections {
		if !strings.Contains(s.Caption, "250kB") {
			continue
		}
		var update, get float64
		for _, row := range s.Rows {
			name := strings.TrimSpace(row[0])
			if name == "leader.update" {
				update, _ = strconv.ParseFloat(row[1], 64)
			}
			if name == "leader.get" {
				get, _ = strconv.ParseFloat(row[1], 64)
			}
		}
		if update > 0 && get > 0 {
			found = true
			if update < 3*get {
				t.Errorf("leader.update (%v) should dominate leader.get (%v) at 250kB", update, get)
			}
		}
	}
	if !found {
		t.Error("no 250kB leader section found")
	}
}

func TestTab3TailsGrow(t *testing.T) {
	rep := runQuick(t, "tab3")
	for _, s := range rep.Sections {
		for _, row := range s.Rows {
			p50, _ := strconv.ParseFloat(row[2], 64)
			p99, _ := strconv.ParseFloat(row[5], 64)
			if p99 < p50 {
				t.Errorf("p99 < p50 in %v", row)
			}
		}
	}
}

func TestFig11HybridFaster(t *testing.T) {
	rep := runQuick(t, "fig11")
	rows := rep.Sections[0].Rows
	for _, row := range rows {
		hybrid, _ := strconv.ParseFloat(row[2], 64)   // 2048MB hybrid
		standard, _ := strconv.ParseFloat(row[4], 64) // 2048MB standard
		if hybrid >= standard {
			t.Errorf("hybrid (%v) not faster than standard (%v) at %s", hybrid, standard, row[0])
		}
	}
}

func TestFig12GCPSlower(t *testing.T) {
	rep := runQuick(t, "fig12")
	if len(rep.Notes) == 0 || !strings.Contains(rep.Notes[0], "slower than AWS") {
		t.Error("fig12 should note the GCP slowdown")
	}
}

func TestFig13MemoryHelps(t *testing.T) {
	rep := runQuick(t, "fig13")
	execRows := rep.Sections[0].Rows
	last := execRows[len(execRows)-1] // 64 clients
	small, _ := strconv.ParseFloat(last[1], 64)
	big, _ := strconv.ParseFloat(last[len(last)-1], 64)
	if small <= big {
		t.Errorf("128MB heartbeat (%v ms) should be slower than 2048MB (%v ms)", small, big)
	}
	costRows := rep.Sections[1].Rows
	for _, row := range costRows {
		for _, cell := range row[1:] {
			c, err := strconv.ParseFloat(cell, 64)
			if err != nil || c <= 0 || c > 2 {
				t.Errorf("daily heartbeat cost %q out of range (cents)", cell)
			}
		}
	}
}

func TestFig5ZooKeeperIdle(t *testing.T) {
	rep := runQuick(t, "fig5")
	rows := rep.Sections[0].Rows
	for _, row := range rows[:len(rows)-1] { // skip setup row
		util := parsePct(row[4])
		if util > 3 {
			t.Errorf("ZooKeeper utilization %v%% too high in %v", util, row)
		}
	}
}

func TestAblationsCloseTheGap(t *testing.T) {
	rep := runQuick(t, "ablations")
	rows := rep.Sections[0].Rows
	parse := func(i, col int) float64 {
		v, _ := strconv.ParseFloat(rows[i][col], 64)
		return v
	}
	baseline := parse(0, 1)
	combined := parse(len(rows)-2, 1)
	zkRef := parse(len(rows)-1, 1)
	if combined >= baseline/2 {
		t.Errorf("combined ablation (%v ms) should cut the baseline (%v ms) by far more than half", combined, baseline)
	}
	if zkRef >= baseline {
		t.Errorf("ZooKeeper reference (%v) should beat the serverless baseline (%v)", zkRef, baseline)
	}
}

func TestShardingScalesUniformWrites(t *testing.T) {
	rep := runQuick(t, "sharding")
	if len(rep.Sections) != 2 {
		t.Fatalf("expected uniform and hot sections, got %d", len(rep.Sections))
	}
	// Uniform workload: throughput must grow monotonically with the shard
	// count and reach at least 2x at 8 shards.
	tput := map[string]float64{}
	for _, row := range rep.Sections[0].Rows {
		v, err := strconv.ParseFloat(row[1], 64)
		if err != nil {
			t.Fatalf("bad throughput in %v", row)
		}
		tput[row[0]] = v
	}
	if !(tput["1"] < tput["2"] && tput["2"] < tput["4"] && tput["4"] < tput["8"]) {
		t.Errorf("uniform throughput not monotone: %v", tput)
	}
	if tput["8"] < 2*tput["1"] {
		t.Errorf("8 shards = %.1f writes/s, want >= 2x single shard (%.1f)", tput["8"], tput["1"])
	}
	// Hot subtree: all writes on one shard, no scaling expected (within
	// noise of 25%).
	hot := map[string]float64{}
	for _, row := range rep.Sections[1].Rows {
		v, err := strconv.ParseFloat(row[1], 64)
		if err != nil || v <= 0 {
			t.Fatalf("bad hot-subtree throughput in %v", row)
		}
		hot[row[0]] = v
	}
	if hot["8"] > 1.25*hot["1"] {
		t.Errorf("hot-subtree workload should not scale: %v", hot)
	}
}

func TestCachingBeatsDirectReads(t *testing.T) {
	rep := runQuick(t, "caching")
	rows := rep.Sections[0].Rows
	if len(rows) != 4 {
		t.Fatalf("expected 4 configurations, got %d", len(rows))
	}
	type cols struct{ hit, mean float64 }
	parsed := map[string]cols{}
	for _, row := range rows {
		hit, err1 := strconv.ParseFloat(row[1], 64)
		mean, err2 := strconv.ParseFloat(row[2], 64)
		if err1 != nil || err2 != nil {
			t.Fatalf("bad row %v", row)
		}
		if row[6] != "0" {
			t.Errorf("Z3 violations in %q: %s", row[0], row[6])
		}
		parsed[row[0]] = cols{hit: hit, mean: mean}
	}
	base := parsed["FK DynamoDB (no cache)"]
	two := parsed["FK DynamoDB + two-level cache"]
	reg := parsed["FK DynamoDB + regional cache"]
	mem := parsed["FK Redis user store (paper ablation)"]
	if base.hit != 0 {
		t.Errorf("uncached run reports %v%% hits", base.hit)
	}
	// Acceptance: the cache tier must at least halve the mean read
	// latency of the KV-store baseline on the Zipf read-heavy workload.
	for name, v := range map[string]cols{"two-level": two, "regional": reg} {
		if v.hit < 50 {
			t.Errorf("%s hit ratio %.1f%%, want > 50%%", name, v.hit)
		}
		if v.mean > base.mean/2 {
			t.Errorf("%s mean %.2f ms, want <= half of the %.2f ms baseline", name, v.mean, base.mean)
		}
	}
	// The all-mem ablation bounds what caching can reach from below.
	if !(mem.mean < two.mean && two.mean < base.mean) {
		t.Errorf("expected mem < two-level < direct means: %v %v %v", mem.mean, two.mean, base.mean)
	}
}

func TestSec532x(t *testing.T) {
	rep := runQuick(t, "sec532x")
	if len(rep.Sections) != 2 {
		t.Fatalf("expected ARM and vCPU sections, got %d", len(rep.Sections))
	}
	rows := rep.Sections[1].Rows
	small, _ := strconv.ParseFloat(strings.TrimPrefix(rows[0][2], "$"), 64)
	full, _ := strconv.ParseFloat(strings.TrimPrefix(rows[1][2], "$"), 64)
	if small >= full {
		t.Errorf("0.33 vCPU cost ($%v) should be below 1 vCPU ($%v)", small, full)
	}
}

func TestBatchingFoldsHotWrites(t *testing.T) {
	rep := runQuick(t, "batching")
	if len(rep.Sections) != 3 {
		t.Fatalf("expected uniform, hot-node, and churn sections, got %d", len(rep.Sections))
	}
	parse := func(row []string) (tput, storeWr, cost float64) {
		tput, err1 := strconv.ParseFloat(row[1], 64)
		storeWr, err2 := strconv.ParseFloat(row[3], 64)
		cost, err3 := strconv.ParseFloat(strings.TrimPrefix(row[7], "$"), 64)
		if err1 != nil || err2 != nil || err3 != nil {
			t.Fatalf("bad row %v", row)
		}
		if row[8] != "0" {
			t.Errorf("ordering violations in %q: %s", row[0], row[8])
		}
		return
	}
	// Hot-node acceptance: the batched distributor must at least halve the
	// user-store write calls, cut $/1M writes, and raise throughput, with
	// zero per-op ordering violations anywhere.
	hot := rep.Sections[1].Rows
	offTput, offWr, offCost := parse(hot[0])
	onTput, onWr, onCost := parse(hot[1])
	if onWr > offWr/2 {
		t.Errorf("batched hot-node store writes/op = %.2f, want <= half of %.2f", onWr, offWr)
	}
	if onCost >= offCost {
		t.Errorf("batched hot-node $/1M = %.4f, want below %.4f", onCost, offCost)
	}
	if onTput <= offTput {
		t.Errorf("batched hot-node throughput %.1f/s, want above %.1f/s", onTput, offTput)
	}
	// Churn: one parent RMW per batch instead of one per create/delete
	// must show up as fewer store writes per op.
	churn := rep.Sections[2].Rows
	_, cOffWr, _ := parse(churn[0])
	_, cOnWr, _ := parse(churn[1])
	if cOnWr >= cOffWr {
		t.Errorf("batched churn store writes/op = %.2f, want below %.2f", cOnWr, cOffWr)
	}
	// Uniform traffic must stay correct (violations checked in parse) and
	// keep its per-op store write (nothing to fold across distinct nodes).
	uni := rep.Sections[0].Rows
	_, uOffWr, _ := parse(uni[0])
	_, uOnWr, _ := parse(uni[1])
	if uOffWr != 1 || uOnWr != 1 {
		t.Errorf("uniform store writes/op = %.2f/%.2f, want 1.00 both", uOffWr, uOnWr)
	}
}

func TestTxnCommitLatencyAndAtomicity(t *testing.T) {
	rep := runQuick(t, "txn")
	if len(rep.Sections) != 2 {
		t.Fatalf("expected latency and contention sections, got %d", len(rep.Sections))
	}
	lat := rep.Sections[0].Rows
	parse := func(row []string, col int) float64 {
		v, err := strconv.ParseFloat(row[col], 64)
		if err != nil {
			t.Fatalf("bad cell %q in row %v", row[col], row)
		}
		return v
	}
	// The fast path must beat the cross-shard rows on p50 commit latency, and
	// latency must grow with the participant count.
	fast, two, four := parse(lat[0], 3), parse(lat[1], 3), parse(lat[2], 3)
	if !(fast < two && two < four) {
		t.Errorf("p50 latency not monotone in participants: %.1f %.1f %.1f", fast, two, four)
	}
	if lat[0][1] != "fast path" || lat[1][1] != "cross-shard" {
		t.Errorf("path labels wrong: %v %v", lat[0][1], lat[1][1])
	}
	// Contention rows: some commits, and never a partial commit.
	for _, row := range rep.Sections[1].Rows {
		if c := parse(row, 1); c <= 0 {
			t.Errorf("shards=%s: no commits under contention", row[0])
		}
		if row[4] != "0" {
			t.Errorf("shards=%s: partial commits reported: %s", row[0], row[4])
		}
	}
}

func TestChaosMatrixClean(t *testing.T) {
	rep := runQuick(t, "chaos")
	if len(rep.Sections) != 2 {
		t.Fatalf("expected matrix and fault-kind sections, got %d", len(rep.Sections))
	}
	// Every (config, seed, arm) row must come back clean, the control arm
	// must inject zero faults, and the fault arm must inject at least one.
	for _, row := range rep.Sections[0].Rows {
		if row[6] != "clean" {
			t.Errorf("%s seed %s faults=%s: %s", row[0], row[1], row[2], row[6])
		}
		injected, err := strconv.ParseInt(row[4], 10, 64)
		if err != nil {
			t.Fatalf("bad injected count in %v", row)
		}
		if row[2] == "off" && injected != 0 {
			t.Errorf("%s seed %s: control arm injected %d faults", row[0], row[1], injected)
		}
		if row[2] == "default" && injected == 0 {
			t.Errorf("%s seed %s: fault arm injected nothing", row[0], row[1])
		}
	}
	// The representative heavy run must exercise more than one fault class.
	if len(rep.Sections[1].Rows) < 2 {
		t.Errorf("fault-kind breakdown too thin: %v", rep.Sections[1].Rows)
	}
}

func TestTelemetryBreakdownValid(t *testing.T) {
	rep := runQuick(t, "telemetry")
	if len(rep.Sections) != 3 {
		t.Fatalf("expected shard, batch, and class sections, got %d", len(rep.Sections))
	}
	// Shard and batch sweeps: stage sums must telescope to end-to-end and
	// the exported Chrome trace must carry the expected stage names.
	for _, sec := range rep.Sections[:2] {
		for _, row := range sec.Rows {
			n := len(row)
			if row[n-2] != "yes" || row[n-1] != "yes" {
				t.Errorf("%s: stage-sum/chrome check failed: %v", row[0], row)
			}
		}
	}
	// Every request class (plain, batched, cross-shard txn) must leave zero
	// open spans and zero invariant violations.
	if got := len(rep.Sections[2].Rows); got != 3 {
		t.Fatalf("expected 3 request classes, got %d", got)
	}
	for _, row := range rep.Sections[2].Rows {
		if row[3] != "0" || row[4] != "0" {
			t.Errorf("class %s: open=%s violations=%s", row[0], row[3], row[4])
		}
		if row[5] != "yes" || row[6] != "yes" {
			t.Errorf("class %s: stage-sum/chrome check failed: %v", row[0], row)
		}
	}
	// Deeper sharding must shrink the queueing stage mean: the whole point
	// of the breakdown is attributing the speedup to the right stage.
	q := map[string]float64{}
	for _, row := range rep.Sections[0].Rows {
		v, err := strconv.ParseFloat(row[3], 64)
		if err != nil {
			t.Fatalf("bad queueing mean in %v", row)
		}
		q[row[0]] = v
	}
	if !(q["4 shards"] < q["1 shards"]) {
		t.Errorf("queueing mean should drop with shards: %v", q)
	}
}

func TestCostLiveMeasuredAndConserved(t *testing.T) {
	rep := runQuick(t, "cost")
	if len(rep.Sections) != 2 {
		t.Fatalf("expected per-config and load-sweep sections, got %d", len(rep.Sections))
	}
	// Every config must bill real dollars, conserve its ledger, and the
	// headline shape must hold: pay-as-you-go undercuts the provisioned
	// ensemble at low load and overtakes it at high load (a break-even
	// exists inside the sweep).
	per1m := map[string]float64{}
	for _, row := range rep.Sections[0].Rows {
		v, err := strconv.ParseFloat(strings.TrimPrefix(row[2], "$"), 64)
		if err != nil || v <= 0 {
			t.Fatalf("config %s: bad $/1M %q", row[0], row[2])
		}
		per1m[row[0]] = v
		if row[len(row)-1] != "yes" {
			t.Errorf("config %s: conservation check failed: %v", row[0], row)
		}
	}
	if len(per1m) != len(costConfigMatrix) {
		t.Fatalf("expected %d configs, got %d", len(costConfigMatrix), len(per1m))
	}
	sweep := rep.Sections[1].Rows
	parse := func(s string) float64 {
		v, err := strconv.ParseFloat(strings.TrimPrefix(s, "$"), 64)
		if err != nil {
			t.Fatalf("bad dollar cell %q", s)
		}
		return v
	}
	first, last := sweep[0], sweep[len(sweep)-1]
	zk := len(first) - 1
	if !(parse(first[1]) < parse(first[zk])) {
		t.Errorf("at %s req/day the plain config should undercut ZooKeeper: %v", first[0], first)
	}
	if !(parse(last[1]) > parse(last[zk])) {
		t.Errorf("at %s req/day the plain config should exceed ZooKeeper: %v", last[0], last)
	}
}

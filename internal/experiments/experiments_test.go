package experiments

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"testing"

	"faaskeeper/internal/core"
	"faaskeeper/internal/costmodel"
	"faaskeeper/internal/fkclient"
	"faaskeeper/internal/sim"
)

func TestRegistryComplete(t *testing.T) {
	want := []string{
		"tab1", "fig4a", "fig4b", "fig5", "tab6a", "fig6b",
		"fig7a", "fig7b", "fig7c", "fig8", "fig9", "fig10",
		"tab3", "fig11", "fig12", "fig13", "tab4", "fig14", "sec532x",
		"ablations", "sharding", "caching", "batching",
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

// TestTable4MatchesMeasuredPaperCost pins the analytic model that prices
// Table 4 and Fig. 14 to the simulator's meter, cost line by cost line: 400
// 1 KB set_data on the paper preset at seed 7, each line of
// costmodel.Model.WriteCost against the meter category that bills it; and
// 1 KB get_data, which is one object-store GET, exactly the model's.
//
// The counted lines are exact. Per write: two queue messages (session
// queue, leader queue), one user-store put, three system-store writes (lock,
// commit, pop) and one system-store read, as the model counts: the leader's
// opening read takes the record alone — a warm one-shard leader whose last
// invocation exited cleanly knows the epoch lists empty and skips the
// region's epoch item — and the watch claim rides that read. At this seed 20
// polls follow opening reads that beat the follower's commit, and 2 writes
// go on to replay the commit, a write each.
//
// Function time is the one line priced, not counted, and the only gap left:
// the model bills a fixed 35 ms follower and 65 ms leader at 2048 MB, the
// simulated ones bill about 30 and 34 ms (the leader carries its last pop
// into the next invocation, reads nothing between a write's flush and its
// answer, and opens with one item). The gap is −36.05 %, and its tolerance
// is a pin just above it: it guards the function-time model, so a change
// that makes the simulated functions bill about 1 % of the model's less
// fails here and re-pins it with its reason; one that brings them closer
// passes. It was 0.36 until the opening read lost the epoch item, which
// took the gap from −34.80 %. The write's total is −9.7 % off the model:
// −$1.35 per 1M of function time, +$0.01 of polls and +$0.01 of replayed
// commits.
func TestTable4MatchesMeasuredPaperCost(t *testing.T) {
	const (
		nodes  = 16
		writes = 400
		reads  = 400
		polls  = 20 // polls after opening reads that missed the follower's commit
		replay = 2  // commits the leader replayed
		tolF   = 0.37
	)
	k := sim.NewKernel(7)
	d := core.NewDeployment(k, core.Config{})
	var perRead float64
	var counts map[string]int64
	var dollars map[string]float64
	k.Go("driver", func() {
		c, err := fkclient.Connect(d, "s", d.Cfg.Profile.Home)
		if err != nil {
			t.Errorf("connect: %v", err)
			return
		}
		payload := make([]byte, 1024)
		paths := make([]string, nodes)
		for i := range paths {
			paths[i] = fmt.Sprintf("/n%d", i)
			if _, err := c.Create(paths[i], payload, 0); err != nil {
				t.Errorf("create: %v", err)
				return
			}
		}
		d.ResetMetrics()
		for i := 0; i < writes; i++ {
			if _, err := c.SetData(paths[i%nodes], payload, -1); err != nil {
				t.Errorf("set_data: %v", err)
				return
			}
		}
		counts, dollars = map[string]int64{}, d.Env.Meter.Snapshot()
		for _, cat := range d.Env.Meter.Categories() {
			counts[cat] = d.Env.Meter.Count(cat)
		}
		d.ResetMetrics()
		for i := 0; i < reads; i++ {
			if _, _, err := c.GetData(paths[i%nodes]); err != nil {
				t.Errorf("get_data: %v", err)
				return
			}
		}
		perRead = d.Env.Meter.Total() / reads
		c.Close()
	})
	k.Run()
	k.Shutdown()

	m := costmodel.NewAWSModel(2048)
	p := m.P
	var measured float64
	for _, c := range []struct {
		cat         string
		count       int64   // per run
		modelCount  int64   // per run
		modelDollar float64 // per billed operation
	}{
		{"queue.msg", 2 * writes, 2 * writes, p.QueueMsgCost(1024)},
		{"obj.write", writes, writes, p.StoreWriteCost(1024, false)},
		{"syskv.write", 3*writes + replay, 3 * writes, p.KVWriteCost(1)},
		{"syskv.read", writes + polls, writes, p.KVReadCost(1, true)},
	} {
		got := counts[c.cat]
		t.Logf("%s: %d per %d writes (model %d), $%.4f per 1M writes (model $%.4f)",
			c.cat, got, writes, c.modelCount, dollars[c.cat]/writes*1e6, float64(c.modelCount)*c.modelDollar/writes*1e6)
		if got != c.count {
			t.Errorf("%s: %d per %d writes, want %d", c.cat, got, writes, c.count)
		}
		if want := float64(got) * c.modelDollar; math.Abs(dollars[c.cat]-want) > 1e-12 {
			t.Errorf("%s: billed $%g for %d operations, the model's price makes it $%g", c.cat, dollars[c.cat], got, want)
		}
		measured += dollars[c.cat]
	}
	fn := dollars["faas.follower"] + dollars["faas.leader"]
	modelFn := p.FaaSCost(m.MemoryMB, 1, m.FollowerSeconds, m.ARM) + p.FaaSCost(m.MemoryMB, 1, m.LeaderSeconds, m.ARM)
	gap := (fn/writes - modelFn) / modelFn
	t.Logf("functions: $%.4f per 1M writes, model $%.4f (%+.2f%%)", fn/writes*1e6, modelFn*1e6, gap*100)
	if math.Abs(gap) > tolF {
		t.Errorf("function time is %+.2f%% off the model's (tolerance %.0f%%)", gap*100, tolF*100)
	}
	measured += fn
	if math.Abs(measured-sum(dollars)) > 1e-12 {
		t.Errorf("the cost lines bill $%g of the writes' $%g: a category is unaccounted for", measured, sum(dollars))
	}
	t.Logf("write: measured $%.4f per 1M, model $%.4f (%+.2f%%)", measured/writes*1e6, m.WriteCost(1024, false)*1e6,
		(measured/writes-m.WriteCost(1024, false))/m.WriteCost(1024, false)*100)
	if model := m.ReadCost(1024, false); math.Abs(perRead-model) > 1e-15 {
		t.Errorf("read: measured $%.4f per 1M, model $%.4f", perRead*1e6, model*1e6)
	}
}

// sum adds a meter snapshot's dollars.
func sum(dollars map[string]float64) (total float64) {
	for _, v := range dollars {
		total += v
	}
	return total
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

// TestFig7aOrderings checks the paper's trigger orderings at the 64 B p50,
// on AWS (Figure 7a) and on GCP (Figure 7c).
func TestFig7aOrderings(t *testing.T) {
	p50Of := func(id string) map[string]float64 {
		p50 := map[string]float64{}
		for _, row := range runQuick(t, id).Sections[0].Rows {
			if row[1] == "64B" {
				v, _ := strconv.ParseFloat(row[3], 64)
				p50[row[0]] = v
			}
		}
		return p50
	}
	p50 := p50Of("fig7a")
	if !(p50["SQS FIFO"] < p50["Direct"]) {
		t.Errorf("FIFO (%v) should beat direct (%v) at p50, as in the paper", p50["SQS FIFO"], p50["Direct"])
	}
	if !(p50["DynamoDB Stream"] > 4*p50["SQS FIFO"]) {
		t.Errorf("streams (%v) should be far slower than FIFO (%v)", p50["DynamoDB Stream"], p50["SQS FIFO"])
	}
	gcp := p50Of("fig7c")
	if !(gcp["PubSub FIFO"] > 2*gcp["Direct"]) {
		t.Errorf("GCP: ordered Pub/Sub (%v) should be far slower than direct invocation (%v), as in the paper", gcp["PubSub FIFO"], gcp["Direct"])
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
	if len(rows) != 3 {
		t.Fatalf("expected 3 configurations, got %d", len(rows))
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
	reg := parsed["FK DynamoDB + regional cache"]
	mem := parsed["FK Redis user store (paper ablation)"]
	if base.hit != 0 {
		t.Errorf("uncached run reports %v%% hits", base.hit)
	}
	// Acceptance: at the default 64 MB the leader's installs keep the hot
	// set resident, so nearly every read hits and the cache tier serves
	// reads at most a quarter as slow as the KV-store baseline.
	if reg.hit <= 90 {
		t.Errorf("regional hit ratio %.1f%%, want > 90%%", reg.hit)
	}
	if reg.mean > base.mean/4 {
		t.Errorf("regional mean %.2f ms, want <= a quarter of the %.2f ms baseline", reg.mean, base.mean)
	}
	capRows := rep.Sections[1].Rows
	if last := capRows[len(capRows)-1]; last[0] != "64MB" {
		t.Errorf("last capacity row is %q, want 64MB", last[0])
	} else if hit, err := strconv.ParseFloat(last[1], 64); err != nil || hit <= 90 {
		t.Errorf("64 MB capacity row hit ratio %s%%, want > 90%%", last[1])
	}
	// The all-mem ablation is the round trip a regional hit costs, so the
	// cached row never falls far behind it.
	if reg.mean > 1.25*mem.mean {
		t.Errorf("regional mean %.2f ms, want <= 1.25x the %.2f ms Redis user store", reg.mean, mem.mean)
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

package obs

import (
	"bytes"
	"testing"
)

// TestCostLedgerConservation exercises the ledger's core identity: every
// Charge lands in exactly one cell and the grand total, and attributing
// exactly what Charge returned keeps AttributedPd == TotalPd regardless
// of how the picodollars are split across traces.
func TestCostLedgerConservation(t *testing.T) {
	reg := NewRegistry(false)
	l := NewCostLedger(reg, true)

	pd := l.Charge("kv.write", 1, "us", 1.25e-6, 1)
	l.Attribute(42, pd)
	pd = l.Charge("queue.msg", 0, "", 4e-7, 1)
	l.Attribute(42, pd/2)
	l.Attribute(43, pd-pd/2)
	pd = l.Charge("faas.follower", 1, "", 7.7e-7, 1)
	l.Attribute(0, pd) // untraced: the system bucket

	if l.AttributedPd() != l.TotalPd() {
		t.Fatalf("attributed %d pd != total %d pd", l.AttributedPd(), l.TotalPd())
	}
	if got := l.CategoryPd("kv.write", 1, "us"); got != USDToPd(1.25e-6) {
		t.Fatalf("kv.write cell = %d pd", got)
	}
	if l.SystemPd() != USDToPd(7.7e-7) {
		t.Fatalf("system bucket = %d pd", l.SystemPd())
	}
	if got := len(l.Traces()); got != 2 {
		t.Fatalf("traces with cost = %d, want 2", got)
	}
	// The gauge mirror carries the same totals the accessors report.
	if g := reg.Gauge(Key{Component: "cost_pd", Name: "kv.write", Shard: 1, Region: "us"}); g != l.CategoryPd("kv.write", 1, "us") {
		t.Fatalf("cost_pd gauge = %d", g)
	}
	// pd per op is micro-USD per million ops by construction.
	if g := reg.Gauge(Key{Component: "cost_per1m", Name: "kv.write", Shard: 1, Region: "us"}); g != USDToPd(1.25e-6) {
		t.Fatalf("cost_per1m gauge = %d", g)
	}
}

// TestCostDisabledAllocatesNothing locks the off-path budget for the cost
// subsystem: a disabled ledger and tracer must make every attribution
// call a zero-allocation early return.
func TestCostDisabledAllocatesNothing(t *testing.T) {
	clk := &fakeClock{}
	h := NewHub(clk, false, false)
	if allocs := testing.AllocsPerRun(200, func() {
		pd := h.Cost.Charge("kv.write", 1, "us", 1e-6, 1)
		h.Cost.Attribute(7, pd)
		h.Tracer.AddCost(7, 0, pd)
	}); allocs != 0 {
		t.Fatalf("disabled cost path allocated %.1f/op, want 0", allocs)
	}
}

// TestCostSpanAttribution checks the span-level landing rules: an open
// concurrent leg absorbs its own charges, stage charges land on the
// current stage, and post-finish charges park and join the root at
// export — so the per-trace span sum stays exact.
func TestCostSpanAttribution(t *testing.T) {
	clk := &fakeClock{}
	reg := NewRegistry(true)
	tr := NewTracer(clk, reg, true)
	l := NewCostLedger(reg, true)
	trace := TraceOf("s", 1)

	tr.StartRequest(trace, "set_data", "/a")
	tr.Stage(trace, StageCommit)
	l.Attribute(trace, 100)
	tr.AddCost(trace, 0, 100) // lands on the open commit stage
	leg := tr.Start(trace, SpanStoreWrite, "/a", 1, "us")
	l.Attribute(trace, 40)
	tr.AddCost(trace, leg, 40) // lands on the store-write leg
	tr.End(leg)
	tr.Finish(trace)
	l.Attribute(trace, 7)
	tr.AddCost(trace, 0, 7) // late: parks, joins the root at export

	var sum int64
	var rootPd, stagePd, legPd int64
	for _, sp := range tr.Spans() {
		sum += sp.CostPd
		switch sp.Name {
		case "set_data":
			rootPd = sp.CostPd
		case StageCommit:
			stagePd = sp.CostPd
		case SpanStoreWrite:
			legPd = sp.CostPd
		}
	}
	if stagePd != 100 || legPd != 40 || rootPd != 7 {
		t.Fatalf("span costs (stage, leg, root) = (%d, %d, %d), want (100, 40, 7)", stagePd, legPd, rootPd)
	}
	if sum != l.TracePd(trace) {
		t.Fatalf("span cost sum %d != ledger trace total %d", sum, l.TracePd(trace))
	}

	// The Chrome export carries the dollars alongside the timings.
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, tr.Spans()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(buf.Bytes(), []byte("cost_usd")) {
		t.Fatal("chrome trace missing cost_usd args")
	}
}

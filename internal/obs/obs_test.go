package obs

import (
	"bytes"
	"strings"
	"testing"

	"faaskeeper/internal/sim"
)

// fakeClock is a manually advanced virtual clock.
type fakeClock struct{ t sim.Time }

func (c *fakeClock) Now() sim.Time { return c.t }

func TestTraceOfDeterministicAndDistinct(t *testing.T) {
	a := TraceOf("s1", 1)
	if a != TraceOf("s1", 1) {
		t.Fatal("TraceOf not deterministic")
	}
	if a <= 0 {
		t.Fatalf("trace id must be positive, got %d", a)
	}
	seen := map[int64]bool{}
	for _, s := range []string{"s1", "s2", "setup", "writer-10"} {
		for seq := int64(1); seq <= 50; seq++ {
			id := TraceOf(s, seq)
			if seen[id] {
				t.Fatalf("collision at (%s,%d)", s, seq)
			}
			seen[id] = true
		}
	}
}

func TestStageChainTelescopes(t *testing.T) {
	clk := &fakeClock{}
	tr := NewTracer(clk, nil, true)
	trace := TraceOf("s", 1)
	tr.StartRequest(trace, "set_data", "/a")
	clk.t = 10
	tr.Stage(trace, StageQueue)
	clk.t = 25
	tr.Stage(trace, StageValidate)
	clk.t = 40
	ch := tr.Start(trace, SpanFollowerCommit, "/a", 2, "us")
	clk.t = 70
	tr.End(ch)
	clk.t = 100
	tr.Finish(trace)

	if len(tr.open) != 0 {
		t.Fatalf("open spans after finish: %d", len(tr.open))
	}
	if errs := tr.Errors(); len(errs) != 0 {
		t.Fatalf("errors: %v", errs)
	}
	spans := tr.TraceSpans(trace)
	var root *Span
	var stageSum sim.Time
	for i := range spans {
		sp := spans[i]
		switch {
		case sp.Parent == 0:
			if root != nil {
				t.Fatal("two roots")
			}
			root = &spans[i]
		case sp.Name != SpanFollowerCommit:
			stageSum += sp.End - sp.Start
		}
	}
	if root == nil {
		t.Fatal("no root span")
	}
	if root.End-root.Start != 100 {
		t.Fatalf("root duration %v, want 100", root.End-root.Start)
	}
	if stageSum != root.End-root.Start {
		t.Fatalf("stage sum %v != root %v", stageSum, root.End-root.Start)
	}
	for _, sp := range spans {
		if sp.Parent != 0 && sp.Parent != root.ID {
			t.Fatalf("span %q has parent %d, want root %d", sp.Name, sp.Parent, root.ID)
		}
	}
}

func TestTracerInvariantViolationsRecorded(t *testing.T) {
	clk := &fakeClock{}
	tr := NewTracer(clk, nil, true)
	trace := TraceOf("s", 2)
	tr.StartRequest(trace, "create", "/x")
	tr.StartRequest(trace, "create", "/x") // duplicate mint
	id := tr.Start(trace, SpanStoreWrite, "", 0, "us")
	tr.End(id)
	tr.End(id) // double close
	tr.Finish(trace)
	tr.Finish(trace) // double finish
	if len(tr.Errors()) != 3 {
		t.Fatalf("want 3 recorded violations, got %v", tr.Errors())
	}
}

func TestLateChildAttachesAfterFinish(t *testing.T) {
	clk := &fakeClock{}
	tr := NewTracer(clk, nil, true)
	trace := TraceOf("s", 3)
	tr.StartRequest(trace, "set_data", "/w")
	clk.t = 5
	tr.Finish(trace)
	clk.t = 6
	id := tr.Start(trace, SpanWatchDeliver, "/w", 0, "eu") // watch lands after the response
	clk.t = 9
	tr.End(id)
	spans := tr.TraceSpans(trace)
	var rootID int64
	for _, sp := range spans {
		if sp.Parent == 0 {
			rootID = sp.ID
		}
	}
	for _, sp := range spans {
		if sp.Name == SpanWatchDeliver && sp.Parent != rootID {
			t.Fatalf("late child parent %d, want root %d", sp.Parent, rootID)
		}
	}
	if len(tr.Errors()) != 0 {
		t.Fatalf("errors: %v", tr.Errors())
	}
}

func TestRegistryInstruments(t *testing.T) {
	r := NewRegistry(true)
	k := Key{Component: "leader", Name: "commits", Shard: 1}
	r.Inc(k, 2)
	r.Inc(k, 3)
	if got := r.Counter(k); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	g := Key{Component: "leader", Name: "queue_depth", Shard: 0}
	r.SetGauge(g, 7)
	if r.Gauge(g) != 7 {
		t.Fatal("gauge readback")
	}
	h := Key{Component: "span", Name: StageCommit}
	r.Observe(h, 2*sim.Ms(1))
	r.Observe(h, 4*sim.Ms(1))
	if s := r.Hist(h); s == nil || s.N() != 2 {
		t.Fatal("hist observations lost")
	}
	// Disabled registry: counters and hists are inert, gauges still work.
	off := NewRegistry(false)
	off.Inc(k, 1)
	off.Observe(h, sim.Ms(1))
	off.SetGauge(g, 3)
	if off.Counter(k) != 0 || off.Hist(h) != nil || off.Gauge(g) != 3 {
		t.Fatal("disabled registry gating wrong")
	}
}

// TestDisabledPathAllocatesNothing locks the write-path budget: with
// telemetry off every tracer and registry call must be a zero-allocation
// early return.
func TestDisabledPathAllocatesNothing(t *testing.T) {
	clk := &fakeClock{}
	h := NewHub(clk, false, false)
	trace := TraceOf("s", 9)
	if allocs := testing.AllocsPerRun(200, func() {
		h.Tracer.StartRequest(trace, "set_data", "/a")
		h.Tracer.Stage(trace, StageCommit)
		id := h.Tracer.Start(trace, SpanStoreWrite, "/a", 1, "us")
		h.Tracer.End(id)
		h.Tracer.Finish(trace)
		h.Metrics.Inc(Key{Component: "leader", Name: "commits"}, 1)
		h.Metrics.Observe(Key{Component: "span", Name: StageCommit}, sim.Ms(1))
	}); allocs != 0 {
		t.Fatalf("disabled telemetry allocated %.1f/op, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(200, func() {
		_ = TraceOf("session-name", 1234)
	}); allocs != 0 {
		t.Fatalf("TraceOf allocated %.1f/op, want 0", allocs)
	}
}

func TestChromeTraceExportRoundTrips(t *testing.T) {
	clk := &fakeClock{}
	tr := NewTracer(clk, nil, true)
	trace := TraceOf("s", 4)
	tr.StartRequest(trace, "set_data", "/a")
	clk.t = 3 * sim.Ms(1)
	tr.Stage(trace, StageCommit)
	clk.t = 5 * sim.Ms(1)
	tr.Finish(trace)
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, tr.Spans()); err != nil {
		t.Fatal(err)
	}
	names, err := ValidateChromeTrace(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"set_data", StageSubmit, StageCommit} {
		if names[want] == 0 {
			t.Fatalf("exported trace missing %q: %v", want, names)
		}
	}
}

func TestSpanLogAndPrometheusExports(t *testing.T) {
	clk := &fakeClock{}
	reg := NewRegistry(true)
	tr := NewTracer(clk, reg, true)
	trace := TraceOf("s", 5)
	tr.StartRequest(trace, "create", "/p")
	clk.t = 2 * sim.Ms(1)
	tr.Finish(trace)
	reg.Inc(Key{Component: "leader", Name: "commits", Shard: 1}, 4)
	reg.SetGauge(Key{Component: "leader", Name: "queue_depth", Shard: 1}, 2)

	var log bytes.Buffer
	if err := WriteSpanLog(&log, tr.Spans()); err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(log.String(), "\n"); lines != 2 {
		t.Fatalf("span log lines = %d, want 2", lines)
	}

	var prom bytes.Buffer
	if err := WritePrometheus(&prom, reg); err != nil {
		t.Fatal(err)
	}
	out := prom.String()
	for _, want := range []string{
		"fk_leader_commits{shard=\"1\"} 4",
		"fk_leader_queue_depth{shard=\"1\"} 2",
		"fk_span_create_ms",
		"quantile=\"0.50\"",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("prometheus dump missing %q:\n%s", want, out)
		}
	}
}

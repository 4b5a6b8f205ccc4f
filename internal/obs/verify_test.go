package obs

import (
	"fmt"
	"testing"
)

// verifiedHub records one well-formed request: a root, two telescoping
// stages, and a store-write leg, with a charge on the commit stage and
// one on the leg, each attributed once.
func verifiedHub() (*Hub, int64) {
	clk := &fakeClock{}
	h := NewHub(clk, true, true)
	trace := TraceOf("s", 1)
	bill := func(span int64, usd float64) {
		pd := h.Cost.Charge("kv.write", 0, "us", usd, 1)
		h.Cost.Attribute(trace, pd)
		h.Tracer.AddCost(trace, span, pd)
	}
	h.Tracer.StartRequest(trace, "set_data", "/a")
	clk.t = 10
	h.Tracer.Stage(trace, StageCommit)
	bill(0, 1e-6)
	leg := h.Tracer.Start(trace, SpanStoreWrite, "/a", 0, "us")
	clk.t = 20
	bill(leg, 2e-6)
	h.Tracer.End(leg)
	clk.t = 30
	h.Tracer.Finish(trace)
	return h, trace
}

// TestVerifyFlagsEachBrokenRule breaks one rule per hub and expects Verify
// to name it, and only it; the unbroken hub passes.
func TestVerifyFlagsEachBrokenRule(t *testing.T) {
	for _, tc := range []struct {
		name   string
		mutate func(h *Hub, trace int64)
		rule   string // "" = clean
	}{
		{"clean", func(*Hub, int64) {}, ""},
		{"open span", func(h *Hub, trace int64) {
			h.Tracer.Start(trace, SpanStoreWrite, "/a", 0, "eu")
		}, RuleSpanTree},
		{"gap in the stage chain", func(h *Hub, _ int64) {
			for i, sp := range h.Tracer.closed {
				if sp.Name == StageCommit {
					h.Tracer.closed[i].Start++
				}
			}
		}, RuleSpanTree},
		{"second root", func(h *Hub, trace int64) {
			h.Tracer.closed = append(h.Tracer.closed, Span{ID: 99, Trace: trace, Name: "set_data", End: 30})
		}, RuleSpanTree},
		{"span parented off the root", func(h *Hub, trace int64) {
			h.Tracer.closed = append(h.Tracer.closed, Span{ID: 99, Parent: 98, Trace: trace, Name: SpanStoreWrite})
		}, RuleSpanTree},
		{"charge attributed twice", func(h *Hub, trace int64) {
			pd := h.Cost.Charge("queue.msg", 0, "", 4e-7, 1)
			h.Cost.Attribute(0, pd)
			h.Cost.Attribute(0, pd)
		}, RuleCost},
		{"charge never attributed", func(h *Hub, trace int64) {
			h.Cost.Charge("queue.msg", 0, "", 4e-7, 1)
		}, RuleCost},
		{"span costs differ from the trace total", func(h *Hub, trace int64) {
			pd := h.Cost.Charge("queue.msg", 0, "", 4e-7, 1)
			h.Cost.Attribute(trace, pd)
			h.Tracer.AddCost(trace, 0, pd-1)
		}, RuleCost},
	} {
		t.Run(tc.name, func(t *testing.T) {
			h, trace := verifiedHub()
			tc.mutate(h, trace)
			fs := h.Verify()
			if tc.rule == "" && len(fs) > 0 {
				t.Fatalf("clean hub flagged: %v", fs)
			}
			if tc.rule != "" && len(fs) == 0 {
				t.Fatalf("not flagged, want %s", tc.rule)
			}
			for _, f := range fs {
				if f.Rule != tc.rule {
					t.Errorf("flagged %s, want only %s", f, tc.rule)
				}
			}
		})
	}
}

// TestVerifyCapsFindings: a rule broken on every trace reports its first
// few traces and a count of the rest.
func TestVerifyCapsFindings(t *testing.T) {
	h, _ := verifiedHub()
	for i := int64(0); i < 20; i++ {
		h.Tracer.closed = append(h.Tracer.closed, Span{ID: 100 + i, Parent: 1, Trace: 1000 + i, Name: SpanStoreWrite})
	}
	fs := h.Verify()
	if len(fs) != maxFindings+1 || fs[maxFindings].Detail != fmt.Sprintf("and %d more", 20-maxFindings) {
		t.Fatalf("findings = %v, want %d and a count of the rest", fs, maxFindings)
	}
}

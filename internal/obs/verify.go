package obs

import (
	"fmt"
	"sort"
	"strings"
)

// Rules a Verify finding names.
const (
	RuleSpanTree = "span-tree"         // every span closed, one telescoping tree per request
	RuleCost     = "cost-conservation" // every picodollar attributed exactly once
)

// maxFindings caps the findings Verify reports per rule: one broken
// instrumentation point usually breaks every request it touches.
const maxFindings = 8

// Finding is one broken span or cost rule.
type Finding struct {
	Rule   string
	Detail string
}

func (f Finding) String() string { return f.Rule + ": " + f.Detail }

// stageNames are the spans of a request's telescoping stage chain; every
// other non-root span of a trace is a concurrent leg.
var stageNames = map[string]bool{
	StageSubmit: true, StageQueue: true, StageValidate: true, StageLeaderQ: true,
	StageCommit: true, StageFlush: true, StageRespond: true,
}

// Verify checks the hub's span and cost invariants and returns what it
// finds broken (nothing on a well-formed run). The span rules, checked
// when the tracer records:
//   - no span is left open and the tracer recorded no error;
//   - each request trace has exactly one root, every other span is
//     parented to it, and the stage spans run without a gap from the
//     root's start to its end.
//
// The cost rules, checked when the ledger records:
//   - the attributed picodollars (system bucket plus every trace) equal
//     what was charged, and the cost_pd gauges sum to the same total;
//   - with spans recorded, each trace's span costs sum to its ledger total.
//
// Call it once the run has drained: a request still in flight has open
// spans.
func (h *Hub) Verify() []Finding {
	if h == nil {
		return nil
	}
	var out []Finding
	counts := map[string]int{}
	report := func(rule, format string, args ...any) {
		if counts[rule]++; counts[rule] <= maxFindings {
			out = append(out, Finding{Rule: rule, Detail: fmt.Sprintf(format, args...)})
		}
	}
	if h.Tracer.Enabled() {
		h.Tracer.verify(report)
	}
	if h.Cost.Enabled() {
		h.verifyCost(report)
	}
	for _, rule := range []string{RuleSpanTree, RuleCost} {
		if n := counts[rule] - maxFindings; n > 0 {
			out = append(out, Finding{Rule: rule, Detail: fmt.Sprintf("and %d more", n)})
		}
	}
	return out
}

func (t *Tracer) verify(report func(rule, format string, args ...any)) {
	if len(t.open) > 0 {
		byName := map[string]int{}
		for _, sp := range t.open {
			byName[sp.Name]++
		}
		var names []string
		for name, n := range byName {
			names = append(names, fmt.Sprintf("%d %s", n, name))
		}
		sort.Strings(names)
		report(RuleSpanTree, "%d span(s) left open: %s", len(t.open), strings.Join(names, ", "))
	}
	for _, e := range t.errs {
		report(RuleSpanTree, "tracer: %s", e)
	}
	byTrace := map[int64][]Span{}
	for _, sp := range t.closed {
		if sp.Trace != 0 { // trace 0: pipeline spans, in no request's tree
			byTrace[sp.Trace] = append(byTrace[sp.Trace], sp)
		}
	}
	for _, trace := range sortedKeys(byTrace) {
		if msg := treeError(byTrace[trace]); msg != "" {
			report(RuleSpanTree, "trace %d: %s", trace, msg)
		}
	}
}

// treeError returns what breaks one trace's tree: its root, its
// parentage, or its stage chain.
func treeError(spans []Span) string {
	var root *Span
	for i := range spans {
		if spans[i].Parent == 0 {
			if root != nil {
				return fmt.Sprintf("two roots, %s and %s", root.Name, spans[i].Name)
			}
			root = &spans[i]
		}
	}
	if root == nil {
		return "no root span"
	}
	var stages []Span
	for _, sp := range spans {
		if sp.Parent == 0 {
			continue
		}
		if sp.Parent != root.ID {
			return fmt.Sprintf("span %s parented to %d, not the root %d", sp.Name, sp.Parent, root.ID)
		}
		if stageNames[sp.Name] {
			stages = append(stages, sp)
		}
	}
	if len(stages) == 0 {
		return "no stage spans"
	}
	sort.Slice(stages, func(i, j int) bool { // a stage opens after the one it closes
		if stages[i].Start != stages[j].Start {
			return stages[i].Start < stages[j].Start
		}
		return stages[i].ID < stages[j].ID
	})
	at := root.Start
	for _, sp := range stages {
		if sp.Start != at {
			return fmt.Sprintf("stage %s starts at %d, the chain is at %d", sp.Name, sp.Start, at)
		}
		at = sp.End
	}
	if at != root.End {
		return fmt.Sprintf("stage chain ends at %d, the root at %d", at, root.End)
	}
	return ""
}

func (h *Hub) verifyCost(report func(rule, format string, args ...any)) {
	l := h.Cost
	if got, want := l.AttributedPd(), l.TotalPd(); got != want {
		report(RuleCost, "attributed %d pd, charged %d pd", got, want)
	}
	var gaugePd int64
	for _, k := range h.Metrics.GaugeKeys() {
		if k.Component == "cost_pd" {
			gaugePd += h.Metrics.Gauge(k)
		}
	}
	if gaugePd != l.TotalPd() {
		report(RuleCost, "cost_pd gauges sum to %d pd, charged %d pd", gaugePd, l.TotalPd())
	}
	if !h.Tracer.Enabled() {
		return
	}
	spanPd := map[int64]int64{}
	for _, sp := range h.Tracer.Spans() {
		if sp.Trace != 0 {
			spanPd[sp.Trace] += sp.CostPd
		}
	}
	for trace := range l.byTrace {
		spanPd[trace] += 0 // a trace the ledger billed but no span carries
	}
	for _, trace := range sortedKeys(spanPd) {
		if got, want := spanPd[trace], l.TracePd(trace); got != want {
			report(RuleCost, "trace %d: span costs sum to %d pd, ledger has %d pd", trace, got, want)
		}
	}
}

func sortedKeys[V any](m map[int64]V) []int64 {
	out := make([]int64, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

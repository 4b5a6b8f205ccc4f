package obs

import (
	"math"
	"sort"
)

// Cost accounting works in integer picodollars (1 pd = 1e-12 USD) so that
// per-request attribution is exact: integer sums are order-independent,
// whereas summing the float charges of interleaved requests in different
// orders drifts in the last bits and breaks the conservation invariant
// (sum of span costs == request cost == registry delta). One convenient
// identity falls out: a category's picodollars-per-op IS its micro-dollars
// per million ops, so the $/1M gauges are a plain integer division.
const PdPerUSD = 1e12

// USDToPd converts a dollar charge to picodollars, rounding half away
// from zero (charges are tiny positive floats; rounding keeps the ledger
// within half a picodollar of the float meter per charge).
func USDToPd(usd float64) int64 { return int64(math.Round(usd * PdPerUSD)) }

// PdToUSD converts picodollars back to dollars.
func PdToUSD(pd int64) float64 { return float64(pd) / PdPerUSD }

// costCell aggregates one billing category refined by shard and region.
// The registry keys are precomputed at cell creation so the per-charge
// gauge mirror costs two map stores and no string building.
type costCell struct {
	pd, n    int64
	pdKey    Key // gauge: total picodollars
	perOpKey Key // gauge: pd/op == micro-USD per 1M ops
	opsKey   Key // counter: billed operations (telemetry-gated)
}

type costKey struct {
	cat    string
	shard  int
	region string
}

// CostLedger is the always-on aggregation side of cost attribution: every
// charge made under an attribution sink lands here exactly once, split
// into (category, shard, region) cells, per-trace totals, and a grand
// total — all in picodollars. Cells mirror into the registry's gauges
// (which function without Telemetry), so Prometheus dumps carry cost
// series on any deployment with cost accounting enabled. A disabled
// ledger is a nil-check no-op.
type CostLedger struct {
	enabled bool
	reg     *Registry

	cells   map[costKey]*costCell
	byTrace map[int64]int64
	totalPd int64
	sysPd   int64 // trace-0 bucket: batch remainders, untraced requests
}

// NewCostLedger builds a ledger over the registry (gauge mirror). A
// disabled ledger records nothing.
func NewCostLedger(reg *Registry, enabled bool) *CostLedger {
	return &CostLedger{
		enabled: enabled,
		reg:     reg,
		cells:   map[costKey]*costCell{},
		byTrace: map[int64]int64{},
	}
}

// Enabled reports whether the ledger records charges.
func (l *CostLedger) Enabled() bool { return l != nil && l.enabled }

// Charge records one metered charge in the category's cell and the grand
// total, mirrors the cell into the registry, and returns the charge in picodollars — the exact amount the caller
// must then distribute with Attribute so the ledger stays conserved.
func (l *CostLedger) Charge(cat string, shard int, region string, usd float64, n int64) int64 {
	if !l.Enabled() {
		return 0
	}
	pd := USDToPd(usd)
	ck := costKey{cat: cat, shard: shard, region: region}
	c := l.cells[ck]
	if c == nil {
		c = &costCell{
			pdKey:    Key{Component: "cost_pd", Name: cat, Shard: shard, Region: region},
			perOpKey: Key{Component: "cost_per1m", Name: cat, Shard: shard, Region: region},
			opsKey:   Key{Component: "cost_ops", Name: cat, Shard: shard, Region: region},
		}
		l.cells[ck] = c
	}
	c.pd += pd
	c.n += n
	l.totalPd += pd
	l.reg.SetGauge(c.pdKey, c.pd)
	if c.n > 0 {
		l.reg.SetGauge(c.perOpKey, c.pd/c.n)
	}
	l.reg.Inc(c.opsKey, n)
	return pd
}

// Attribute assigns pd picodollars of an already-Charged amount to a
// trace (0 = the system bucket: untraced requests, batch-amortization
// remainders). Callers must attribute exactly what Charge returned,
// split however they like — the conservation invariant is
// total == system + sum over traces.
func (l *CostLedger) Attribute(trace, pd int64) {
	if !l.Enabled() || pd == 0 {
		return
	}
	if trace == 0 {
		l.sysPd += pd
		return
	}
	l.byTrace[trace] += pd
}

// TotalPd returns the grand total in picodollars.
func (l *CostLedger) TotalPd() int64 {
	if l == nil {
		return 0
	}
	return l.totalPd
}

// TotalUSD returns the grand total in dollars.
func (l *CostLedger) TotalUSD() float64 { return PdToUSD(l.TotalPd()) }

// TracePd returns one trace's attributed total in picodollars — the
// client-billed cost of that request.
func (l *CostLedger) TracePd(trace int64) int64 {
	if l == nil {
		return 0
	}
	return l.byTrace[trace]
}

// SystemPd returns the trace-0 bucket: charges attributed to the pipeline
// rather than any single request.
func (l *CostLedger) SystemPd() int64 {
	if l == nil {
		return 0
	}
	return l.sysPd
}

// AttributedPd returns system + sum of per-trace totals. On a conserved
// ledger it equals TotalPd exactly.
func (l *CostLedger) AttributedPd() int64 {
	if l == nil {
		return 0
	}
	s := l.sysPd
	for _, pd := range l.byTrace {
		s += pd
	}
	return s
}

// Traces lists the trace ids with attributed cost, sorted.
func (l *CostLedger) Traces() []int64 {
	if l == nil {
		return nil
	}
	out := make([]int64, 0, len(l.byTrace))
	for tr := range l.byTrace {
		out = append(out, tr)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// CategoryPd returns the accumulated picodollars of one (category, shard,
// region) cell.
func (l *CostLedger) CategoryPd(cat string, shard int, region string) int64 {
	if l == nil {
		return 0
	}
	c := l.cells[costKey{cat: cat, shard: shard, region: region}]
	if c == nil {
		return 0
	}
	return c.pd
}

// Reset clears all cells and per-trace totals (the experiment warm-up
// boundary). The enabled state is preserved.
func (l *CostLedger) Reset() {
	if l == nil {
		return
	}
	l.cells = map[costKey]*costCell{}
	l.byTrace = map[int64]int64{}
	l.totalPd = 0
	l.sysPd = 0
}

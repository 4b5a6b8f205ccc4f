package obs

import (
	"sort"

	"faaskeeper/internal/sim"
	"faaskeeper/internal/stats"
)

// Key identifies one instrument: a (component, name) pair refined by the
// shard and region it measures (zero values when not applicable). Being a
// comparable struct, map lookups with it never allocate — the hot path
// pays a hash, not a garbage string key.
type Key struct {
	Component string
	Name      string
	Shard     int
	Region    string
}

// Registry holds counters, gauges, and histograms for every component.
//
// Counters and histograms are hot-path instruments: they record only when
// the registry is enabled (Config.Telemetry) and are strict no-ops —
// zero allocation, zero map traffic — when it is not. Gauges are levels
// owned by a subsystem with its own switch or publish call (the cost
// ledger's mirror cells, cache node statistics): they always
// function, so a deployment that never enables span telemetry still
// exports its cost and cache series.
type Registry struct {
	enabled  bool
	counters map[Key]int64
	gauges   map[Key]int64
	hists    map[Key]*stats.Sample
}

// NewRegistry builds a registry; enabled gates the hot-path instruments.
func NewRegistry(enabled bool) *Registry {
	return &Registry{
		enabled:  enabled,
		counters: map[Key]int64{},
		gauges:   map[Key]int64{},
		hists:    map[Key]*stats.Sample{},
	}
}

// Enabled reports whether hot-path instruments record.
func (r *Registry) Enabled() bool { return r != nil && r.enabled }

// Inc adds delta to a counter. No-op when disabled.
func (r *Registry) Inc(k Key, delta int64) {
	if !r.Enabled() {
		return
	}
	r.counters[k] += delta
}

// Counter reads a counter's current value.
func (r *Registry) Counter(k Key) int64 {
	if r == nil {
		return 0
	}
	return r.counters[k]
}

// SetGauge records a level. Gauges always function (see the type comment).
func (r *Registry) SetGauge(k Key, v int64) {
	if r == nil {
		return
	}
	r.gauges[k] = v
}

// Gauge reads the last sampled level (0 if never set).
func (r *Registry) Gauge(k Key) int64 {
	if r == nil {
		return 0
	}
	return r.gauges[k]
}

// Observe adds one duration observation (in milliseconds, the stats
// convention) to the key's histogram. No-op when disabled.
func (r *Registry) Observe(k Key, d sim.Time) {
	if !r.Enabled() {
		return
	}
	s := r.hists[k]
	if s == nil {
		s = stats.NewSample(1024)
		r.hists[k] = s
	}
	s.AddDur(d)
}

// Hist returns the key's histogram sample, or nil if nothing observed.
func (r *Registry) Hist(k Key) *stats.Sample {
	if r == nil {
		return nil
	}
	return r.hists[k]
}

// Reset clears every instrument (the experiment warm-up boundary).
func (r *Registry) Reset() {
	if r == nil {
		return
	}
	r.counters = map[Key]int64{}
	r.gauges = map[Key]int64{}
	r.hists = map[Key]*stats.Sample{}
}

func sortKeys(ks []Key) []Key {
	sort.Slice(ks, func(i, j int) bool {
		a, b := ks[i], ks[j]
		if a.Component != b.Component {
			return a.Component < b.Component
		}
		if a.Name != b.Name {
			return a.Name < b.Name
		}
		if a.Shard != b.Shard {
			return a.Shard < b.Shard
		}
		return a.Region < b.Region
	})
	return ks
}

// CounterKeys lists the counters with recorded values, sorted.
func (r *Registry) CounterKeys() []Key {
	if r == nil {
		return nil
	}
	ks := make([]Key, 0, len(r.counters))
	for k := range r.counters {
		ks = append(ks, k)
	}
	return sortKeys(ks)
}

// GaugeKeys lists the gauges that have been set, sorted.
func (r *Registry) GaugeKeys() []Key {
	if r == nil {
		return nil
	}
	ks := make([]Key, 0, len(r.gauges))
	for k := range r.gauges {
		ks = append(ks, k)
	}
	return sortKeys(ks)
}

// HistKeys lists the histograms with observations, sorted.
func (r *Registry) HistKeys() []Key {
	if r == nil {
		return nil
	}
	ks := make([]Key, 0, len(r.hists))
	for k := range r.hists {
		ks = append(ks, k)
	}
	return sortKeys(ks)
}

// Hub bundles one deployment's tracer, registry, and cost ledger.
type Hub struct {
	Tracer  *Tracer
	Metrics *Registry
	Cost    *CostLedger
}

// NewHub wires a registry, a tracer over it, and a cost ledger. telemetry
// gates the hot-path instruments of the first two; cost gates the ledger
// independently, so a deployment can account dollars without recording
// spans (the ledger's gauge mirror rides the always-on gauge side).
func NewHub(clock sim.Clock, telemetry, cost bool) *Hub {
	reg := NewRegistry(telemetry)
	tr := NewTracer(clock, reg, telemetry)
	return &Hub{Tracer: tr, Metrics: reg, Cost: NewCostLedger(reg, cost)}
}

// Reset clears spans, metrics, and the cost ledger (the experiment
// warm-up boundary).
func (h *Hub) Reset() {
	if h == nil {
		return
	}
	h.Tracer.Reset()
	h.Metrics.Reset()
	h.Cost.Reset()
}

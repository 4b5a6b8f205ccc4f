// Package obs is the virtual-time telemetry subsystem: causal request
// spans, a component metrics registry, and exporters (Chrome trace-event
// JSON, Prometheus text, structured span log).
//
// Tracing is causal and deterministic: the trace id of a request is a
// pure function of (session, sequence) — TraceOf — so every pipeline
// stage (client, follower, leader, distributor) derives the same id
// independently; the wire carries it as a trailing field that is always
// written, so message sizes do not depend on whether tracing is on. A
// request's spans form one tree: a root span covering submit to response,
// a telescoping chain of stage spans that partition the root exactly
// (each Stage call closes the current stage and opens the next, so stage
// durations sum to the end-to-end virtual time by construction), and
// free-floating child spans for legs that run
// concurrently with the critical path (the follower's commit, per-region
// store writes, watch deliveries).
//
// A crashed attempt leaves nothing open and nothing unbilled. Crashes (the
// chaos fault hook's, at the labeled stages) fall only where the attempt
// holds no concurrent leg open, so its time stays in the request's open
// stage, and the retry's next Stage call continues the same chain. Every
// attempt is billed, as the provider bills it: the crashed attempt's
// function time and the storage operations it made are charged and
// attributed like any other. Hub.Verify checks the span rules and the cost
// rules.
//
// Everything is built for the simulator's cooperative scheduling: exactly
// one process runs at a time, so the tracer and registry need no locks,
// and timestamps come from a sim.Clock so spans live in virtual time.
// When disabled (the default), every call is an early-return with zero
// allocation — the write path's allocation budgets do not move.
package obs

import (
	"sort"
	"strings"

	"faaskeeper/internal/sim"
)

// fnv64 constants (FNV-1a), inlined so minting a trace id never allocates
// a hash.Hash on the hot path.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// TraceOf deterministically mints the trace id of a client request from
// its session id and per-session sequence number — the pair that already
// uniquely identifies a request end to end. Every stage can recompute it
// from fields the wire already carries, so messages are byte-identical to
// the untraced pipeline's.
func TraceOf(session string, seq int64) int64 {
	h := uint64(fnvOffset64)
	for i := 0; i < len(session); i++ {
		h ^= uint64(session[i])
		h *= fnvPrime64
	}
	for i := 0; i < 8; i++ {
		h ^= uint64(byte(seq >> (8 * i)))
		h *= fnvPrime64
	}
	// Clear the sign bit like WatchID, and never collide with the
	// "untraced" sentinel 0.
	id := int64(h &^ (1 << 63))
	if id == 0 {
		id = 1
	}
	return id
}

// Span is one closed interval of a request's life. Trace 0 marks a
// pipeline-level span not attributed to a single request (a batched
// distributor flush serving many folded requests at once).
type Span struct {
	ID     int64    `json:"id"`
	Parent int64    `json:"parent,omitempty"`
	Trace  int64    `json:"trace,omitempty"`
	Name   string   `json:"name"`
	Path   string   `json:"path,omitempty"`
	Shard  int      `json:"shard,omitempty"`
	Region string   `json:"region,omitempty"`
	Start  sim.Time `json:"start_ns"`
	End    sim.Time `json:"end_ns"`
	// CostPd is the pay-as-you-go cost attributed to this span, in integer
	// picodollars (1e-12 USD; see CostLedger). Span costs telescope like
	// durations: a trace's spans sum exactly to its ledger total.
	CostPd int64 `json:"cost_pd,omitempty"`
}

// Tracer records spans against a virtual clock. The zero of every method
// is a no-op when the tracer is disabled or nil, costing nothing on the
// hot path.
type Tracer struct {
	clock   sim.Clock
	metrics *Registry
	enabled bool
	nextID  int64
	closed  []Span
	open    map[int64]*Span
	roots   map[int64]int64 // trace -> root span id (kept after Finish for late children)
	cur     map[int64]int64 // trace -> currently open stage span id
	late    map[int64]int64 // trace -> cost (pd) charged after the trace finished
	// paths interns span paths: a path decoded from a queue message views
	// the message, and a span outlives it, so the first span of a path
	// stores a clone that later spans share.
	paths map[string]string
	errs  []string
}

// NewTracer builds a tracer over the clock. A disabled tracer records
// nothing. Closed spans are mirrored into reg's per-stage histograms when
// reg is non-nil.
func NewTracer(clock sim.Clock, reg *Registry, enabled bool) *Tracer {
	return &Tracer{
		clock:   clock,
		metrics: reg,
		enabled: enabled,
		open:    map[int64]*Span{},
		roots:   map[int64]int64{},
		cur:     map[int64]int64{},
		late:    map[int64]int64{},
		paths:   map[string]string{},
	}
}

// Enabled reports whether the tracer records spans.
func (t *Tracer) Enabled() bool { return t != nil && t.enabled }

func (t *Tracer) errf(msg string) { t.errs = append(t.errs, msg) }

func (t *Tracer) alloc(trace, parent int64, name, path string, shard int, region string) int64 {
	t.nextID++
	id := t.nextID
	p, ok := t.paths[path]
	if !ok {
		p = strings.Clone(path)
		t.paths[p] = p
	}
	path = p
	t.open[id] = &Span{
		ID: id, Parent: parent, Trace: trace, Name: name, Path: path,
		Shard: shard, Region: region, Start: t.clock.Now(),
	}
	return id
}

func (t *Tracer) close(id int64) {
	sp, ok := t.open[id]
	if !ok {
		t.errf("span closed twice or never opened")
		return
	}
	delete(t.open, id)
	sp.End = t.clock.Now()
	t.closed = append(t.closed, *sp)
	if t.metrics != nil {
		t.metrics.Observe(Key{Component: "span", Name: sp.Name, Shard: sp.Shard, Region: sp.Region}, sp.End-sp.Start)
	}
}

// StartRequest opens a request's root span (named after the operation)
// and its first stage, "client.submit". Minting the same trace twice is
// recorded as an invariant violation.
func (t *Tracer) StartRequest(trace int64, op, path string) {
	if !t.Enabled() || trace == 0 {
		return
	}
	if _, dup := t.roots[trace]; dup {
		t.errf("duplicate root span for trace")
		return
	}
	root := t.alloc(trace, 0, op, path, 0, "")
	t.roots[trace] = root
	t.cur[trace] = t.alloc(trace, root, StageSubmit, path, 0, "")
}

// Stage closes the trace's current stage and opens the next one, so the
// stage chain telescopes: stage durations always sum exactly to the root
// span. Unknown traces (requests issued before telemetry was enabled, or
// internal traffic) are ignored.
func (t *Tracer) Stage(trace int64, name string) {
	if !t.Enabled() || trace == 0 {
		return
	}
	root, ok := t.roots[trace]
	if !ok {
		return
	}
	if _, live := t.open[root]; !live {
		// The trace already finished: a superseded duplicate hop (e.g. a
		// leader batch redelivered after the request was answered).
		// Opening a stage now would leak it — the chain's endpoints belong
		// to the live request only.
		return
	}
	if cur, ok := t.cur[trace]; ok {
		t.close(cur)
	}
	t.cur[trace] = t.alloc(trace, root, name, "", 0, "")
}

// Finish closes the trace's current stage and its root span. The trace's
// root stays registered so late concurrent legs (a watch delivery landing
// after the response) still attach to the tree.
func (t *Tracer) Finish(trace int64) {
	if !t.Enabled() || trace == 0 {
		return
	}
	root, ok := t.roots[trace]
	if !ok {
		return
	}
	if cur, ok := t.cur[trace]; ok {
		t.close(cur)
		delete(t.cur, trace)
	}
	if _, stillOpen := t.open[root]; stillOpen {
		t.close(root)
	} else {
		t.errf("trace finished twice")
	}
}

// Start opens a child span for a leg that runs concurrently with the
// stage chain (a store write, a watch delivery). It returns the span
// handle for End; 0 when disabled. Trace 0 records a
// pipeline-level span outside any request tree.
func (t *Tracer) Start(trace int64, name, path string, shard int, region string) int64 {
	if !t.Enabled() {
		return 0
	}
	return t.alloc(trace, t.roots[trace], name, path, shard, region)
}

// End closes a child span opened by Start. End(0) is a no-op, so callers
// can unconditionally End what Start returned.
func (t *Tracer) End(id int64) {
	if !t.Enabled() || id == 0 {
		return
	}
	t.close(id)
}

// AddCost attributes pd picodollars of pay-as-you-go cost to a span of
// the trace, at the instant the underlying charge occurs. With a non-zero
// span handle (an open concurrent leg — a store write, a watch delivery)
// the cost lands on that span; otherwise it lands on the trace's currently
// open stage, so stage costs telescope to the request
// total exactly as stage durations do. A charge arriving after the trace
// finished (the leader's post-respond bookkeeping) is parked and joined
// onto the root span at export time, keeping the per-trace sum exact.
func (t *Tracer) AddCost(trace, span, pd int64) {
	if !t.Enabled() || pd == 0 {
		return
	}
	if span != 0 {
		if sp, ok := t.open[span]; ok {
			sp.CostPd += pd
			return
		}
	}
	if trace == 0 {
		return
	}
	if cur, ok := t.cur[trace]; ok {
		if sp, live := t.open[cur]; live {
			sp.CostPd += pd
			return
		}
	}
	if _, known := t.roots[trace]; known {
		t.late[trace] += pd
	}
}

// joinLate folds parked post-finish costs onto each trace's root span in
// an exported copy (the live records stay untouched so exports are
// idempotent).
func (t *Tracer) joinLate(out []Span) {
	if len(t.late) == 0 {
		return
	}
	for i := range out {
		if pd := t.late[out[i].Trace]; pd != 0 && out[i].ID == t.roots[out[i].Trace] {
			out[i].CostPd += pd
		}
	}
}

// Spans returns the closed spans in closing order.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	out := make([]Span, len(t.closed))
	copy(out, t.closed)
	t.joinLate(out)
	return out
}

// TraceSpans returns the closed spans of one trace, ordered by start time
// (span id breaks ties deterministically).
func (t *Tracer) TraceSpans(trace int64) []Span {
	if t == nil {
		return nil
	}
	var out []Span
	for _, sp := range t.closed {
		if sp.Trace == trace {
			out = append(out, sp)
		}
	}
	t.joinLate(out)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Start != out[j].Start {
			return out[i].Start < out[j].Start
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// Errors returns recorded invariant violations (double close, duplicate
// root). Empty on a well-formed run.
func (t *Tracer) Errors() []string {
	if t == nil {
		return nil
	}
	return append([]string(nil), t.errs...)
}

// Reset drops all recorded spans and trace state (the experiment warm-up
// boundary). Enabled state is preserved.
func (t *Tracer) Reset() {
	if t == nil {
		return
	}
	t.closed = nil
	t.errs = nil
	t.open = map[int64]*Span{}
	t.roots = map[int64]int64{}
	t.cur = map[int64]int64{}
	t.late = map[int64]int64{}
}

// Canonical stage and child-span names, shared by the pipeline
// instrumentation, the telemetry experiment, and the CI smoke assertion.
const (
	StageSubmit   = "client.submit"     // request built, waiting for the sender worker
	StageQueue    = "queue.session"     // in the session FIFO queue to the follower
	StageValidate = "follower.validate" // follower lock/validate/push (Algorithm 1 steps 1-3)
	StageLeaderQ  = "queue.leader"      // in the sharded ordered leader queue
	StageCommit   = "leader.commit"     // leader opening read, awaitCommit + watch claim (Algorithm 2 steps 1-2)
	StageFlush    = "distributor.flush" // distributor fold/flush to user stores
	StageRespond  = "response.net"      // response queued back to the client
	StageTxnPrep  = "txn.prepare"       // multi(): crash point between its leader push and its commit

	SpanFollowerCommit = "follower.commit" // system-store commit, concurrent with queue.leader
	SpanStoreWrite     = "store.write"     // one region's user-store write
	SpanCacheInval     = "cache.invalidate"
	SpanCacheInstall   = "cache.install" // the written objects installed in the region's cache node
	SpanWatchDeliver   = "watch.deliver" // watch function invocation + delivery
)

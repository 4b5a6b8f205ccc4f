// Package shardmap implements the epoch-versioned routing table behind
// FaaSKeeper's dynamic write sharding: a durable map from znode paths to
// leader write shards that can change at runtime — growing or shrinking
// the shard count with consistent-hash-style slot moves, and sub-splitting
// a hot top-level subtree at depth 2 — without stopping the pipeline.
//
// The static design (PR 1) routes a path by hashing its top-level segment
// modulo the deployment's fixed shard count; every layer (follower,
// leader, transaction coordinator, client) recomputes that pure function.
// This package keeps the same default route as epoch 0 — a map that was
// never resharded routes byte-for-byte like core.ShardOf — and layers two
// reassignment mechanisms on top:
//
//   - Slot overrides: every top-level segment hashes into one of Slots
//     fixed slots; a slot may be overridden to a specific shard. Growing
//     from N to N+1 queues assigns ~Slots/(N+1) slots to the new shard and
//     leaves every other segment's route untouched — the minimal-movement
//     property of a consistent-hash ring with fixed virtual points.
//
//   - Subtree splits: a hot top-level subtree ("/hot") is re-routed at
//     depth 2 — each second-level segment hashes over the split's target
//     shards, so "/hot/a" and every descendant of "/hot/a" share a shard
//     (parent/child colocation holds for all affected paths); only the
//     subtree root itself becomes a shared path, maintained under a
//     cross-shard lock exactly like the tree root.
//
// A transition between two maps is described by a Migration and driven by
// the live-reshard protocol in package core: the coordinator gates the
// migrating prefixes (writers to them wait), drains the source shards'
// queues behind a fence message, bumps the affected shards' generations,
// and flips the epoch. Writers stamp the generation they routed with on
// their system-store commit; a commit racing a reshard fails its
// generation guard and retries against the new map — the same
// reject-and-retry shape as the Z4 epoch-stamp gate.
//
// Transaction ids stay globally unique and strictly increasing per shard
// across reshards: in dynamic mode txid = (queueSeqNo + SeqBase[shard]) *
// Stride + shard, and a migration raises the destination's SeqBase past
// every txid the source could have minted, so per-path mzxid never
// regresses when a path changes shards.
package shardmap

import (
	"fmt"
	"hash/fnv"
	"sort"
	"strings"
)

const (
	// Slots is the fixed consistent-hash slot count. Each top-level
	// segment hashes into one slot; reassignment granularity is one slot.
	Slots = 256

	// Stride is the txid interleave base of a dynamic deployment:
	// txid = (seqNo + SeqBase[shard])*Stride + shard. Fixing it (rather
	// than using the live shard count) keeps txid-to-shard decoding
	// stable across epochs, so client-side per-shard MRD floors survive a
	// map change.
	Stride = 64

	// MaxShards caps the shard queues a dynamic deployment may grow to
	// (shard ids must stay below Stride).
	MaxShards = Stride
)

// Split re-routes one top-level subtree at depth 2: paths under Prefix
// hash their second segment over Shards. The prefix node itself is owned
// by Shards[0] for data writes but its child list is rebuilt by every
// target shard, making it a shared path (see Map.Shared).
type Split struct {
	Prefix string // top-level path, e.g. "/hot"
	Shards []int
}

// Migration describes an in-flight transition. While non-nil on the
// durable map, writers to the migrating paths wait for the flip (the
// quiesce gate); everything else proceeds.
type Migration struct {
	Slots    []int    // slot ids whose override changes
	Prefixes []string // top-level subtree prefixes being split or merged
	Sources  []int    // shards that must drain before the flip
	Dests    []int    // shards gaining paths (SeqBase raised at the flip)
}

// Map is one epoch of the routing table.
type Map struct {
	Epoch  int64 // bumped on every routing flip
	Base   int   // modulus of the default route (the initial WriteShards)
	Queues int   // provisioned shard queues; routing targets [0, Queues)

	Overrides map[int]int   // slot -> shard reassignments
	Splits    []Split       // hot-subtree split rules
	SeqBase   map[int]int64 // per-shard txid sequence base
	Gens      map[int]int64 // per-shard routing generation (commit guard)

	Mig *Migration // non-nil while a reshard transition is in flight
}

// New returns the epoch-0 map of a deployment with `shards` write shards:
// it routes every path exactly like the static core.ShardOf(path, shards).
func New(shards int) *Map {
	if shards <= 0 {
		shards = 1
	}
	return &Map{
		Base:      shards,
		Queues:    shards,
		Overrides: map[int]int{},
		SeqBase:   map[int]int64{},
		Gens:      map[int]int64{},
	}
}

// Clone returns a deep copy.
func (m *Map) Clone() *Map {
	n := *m
	n.Overrides = make(map[int]int, len(m.Overrides))
	for k, v := range m.Overrides {
		n.Overrides[k] = v
	}
	n.SeqBase = make(map[int]int64, len(m.SeqBase))
	for k, v := range m.SeqBase {
		n.SeqBase[k] = v
	}
	n.Gens = make(map[int]int64, len(m.Gens))
	for k, v := range m.Gens {
		n.Gens[k] = v
	}
	n.Splits = make([]Split, len(m.Splits))
	for i, s := range m.Splits {
		n.Splits[i] = Split{Prefix: s.Prefix, Shards: append([]int(nil), s.Shards...)}
	}
	if m.Mig != nil {
		mg := Migration{
			Slots:    append([]int(nil), m.Mig.Slots...),
			Prefixes: append([]string(nil), m.Mig.Prefixes...),
			Sources:  append([]int(nil), m.Mig.Sources...),
			Dests:    append([]int(nil), m.Mig.Dests...),
		}
		n.Mig = &mg
	}
	return &n
}

// TopSegment returns a path's first segment ("" for the root).
func TopSegment(path string) string {
	if len(path) < 2 || path[0] != '/' {
		return ""
	}
	rest := path[1:]
	if i := strings.IndexByte(rest, '/'); i >= 0 {
		return rest[:i]
	}
	return rest
}

// SubSegment returns a path's second segment ("" when the path has fewer
// than two segments).
func SubSegment(path string) string {
	if len(path) < 2 || path[0] != '/' {
		return ""
	}
	rest := path[1:]
	i := strings.IndexByte(rest, '/')
	if i < 0 {
		return ""
	}
	rest = rest[i+1:]
	if j := strings.IndexByte(rest, '/'); j >= 0 {
		return rest[:j]
	}
	return rest
}

func hash32(s string) uint32 {
	h := fnv.New32a()
	h.Write([]byte(s))
	return h.Sum32()
}

// DefaultShard is the static route of the original sharded write path: the
// FNV hash of the top-level segment modulo n, root on shard 0. Epoch 0 of
// every map routes identically (core.ShardOf delegates here).
func DefaultShard(path string, n int) int {
	if n <= 1 {
		return 0
	}
	seg := TopSegment(path)
	if seg == "" {
		return 0
	}
	return int(hash32(seg) % uint32(n))
}

// SlotOf maps a top-level segment to its consistent-hash slot. A distinct
// suffix decorrelates the slot hash from the default-route hash, so a
// slot's segments are not biased toward one base shard.
func SlotOf(seg string) int {
	return int(hash32(seg+"\x00slot") % Slots)
}

func (m *Map) split(seg string) *Split {
	for i := range m.Splits {
		if m.Splits[i].Prefix == "/"+seg {
			return &m.Splits[i]
		}
	}
	return nil
}

// ShardFor routes a path under this map: split rules first (depth-2 hash
// over the split's targets; the subtree root itself is owned by the first
// target), then slot overrides, then the epoch-0 default route.
func (m *Map) ShardFor(path string) int {
	seg := TopSegment(path)
	if seg == "" {
		return 0
	}
	if sp := m.split(seg); sp != nil && len(sp.Shards) > 0 {
		sub := SubSegment(path)
		if sub == "" {
			return sp.Shards[0]
		}
		return sp.Shards[int(hash32(sub+"\x00sub")%uint32(len(sp.Shards)))]
	}
	if s, ok := m.Overrides[SlotOf(seg)]; ok {
		return s
	}
	return DefaultShard(path, m.Base)
}

// Shared reports whether a path's user-store object is rebuilt by more
// than one shard leader: the tree root of any multi-queue deployment, and
// the root node of a split subtree (its child list is spliced by every
// split target). Shared paths are serialized under a cross-shard lock and
// excluded from the session-local client cache.
func (m *Map) Shared(path string) bool {
	seg := TopSegment(path)
	if seg == "" {
		return m.Queues > 1
	}
	if SubSegment(path) != "" {
		return false
	}
	sp := m.split(seg)
	return sp != nil && len(sp.Shards) > 1
}

// Blocked reports whether writes to path must wait for the in-flight
// migration to flip: the path's subtree is being split or merged, or its
// slot's override is changing. Everything else — including other prefixes
// on the source shards — keeps flowing.
func (m *Map) Blocked(path string) bool {
	if m.Mig == nil {
		return false
	}
	seg := TopSegment(path)
	if seg == "" {
		return false // the root never migrates (always shard 0)
	}
	for _, p := range m.Mig.Prefixes {
		if p == "/"+seg {
			return true
		}
	}
	if len(m.Mig.Slots) > 0 && m.split(seg) == nil {
		slot := SlotOf(seg)
		for _, s := range m.Mig.Slots {
			if s == slot {
				return true
			}
		}
	}
	return false
}

// GenOf returns a shard's routing generation (0 until its first reshard).
func (m *Map) GenOf(shard int) int64 { return m.Gens[shard] }

// Txid mints the dynamic-mode transaction id for a queue sequence number
// on a shard: strictly increasing per shard (SeqBase only grows), globally
// unique, and decodable back to the minting shard via ShardOfTxid.
func (m *Map) Txid(seqNo int64, shard int) int64 {
	return (seqNo+m.SeqBase[shard])*Stride + int64(shard)
}

// ShardOfTxid recovers the minting shard from a dynamic-mode txid.
func ShardOfTxid(txid int64) int { return int(txid % Stride) }

// bumpGens raises the routing generation of every listed shard.
func (m *Map) bumpGens(shards []int) {
	for _, s := range shards {
		m.Gens[s]++
	}
}

// affected returns the union of a migration's source and destination
// shards (the shards whose generations bump at the gate and the flip).
func (mig *Migration) affected() []int {
	seen := map[int]bool{}
	var out []int
	for _, s := range append(append([]int(nil), mig.Sources...), mig.Dests...) {
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	sort.Ints(out)
	return out
}

// Gate returns the gated intermediate map of a planned transition: same
// routing as the current map, Mig set, affected generations bumped. The
// core reshard engine writes it durably before fencing the sources.
func (m *Map) Gate(mig *Migration) *Map {
	g := m.Clone()
	g.Mig = mig
	g.bumpGens(mig.affected())
	return g
}

// allShards lists [0, Queues).
func (m *Map) allShards() []int {
	out := make([]int, m.Queues)
	for i := range out {
		out[i] = i
	}
	return out
}

// validatePrefix requires a top-level path ("/x").
func validatePrefix(prefix string) error {
	if len(prefix) < 2 || prefix[0] != '/' || strings.ContainsRune(prefix[1:], '/') {
		return fmt.Errorf("shardmap: split prefix must be a top-level path, got %q", prefix)
	}
	return nil
}

// PlanGrow plans growth to `queues` shard queues by overriding ~Slots/queues
// slots per new shard (slot s moves to new shard q when s % queues == q),
// leaving every other segment's route untouched. The returned map carries
// the Migration; Epoch/SeqBase are finalized by the reshard engine at the
// flip.
func (m *Map) PlanGrow(queues int) (*Map, error) {
	if queues <= m.Queues {
		return nil, fmt.Errorf("shardmap: grow to %d <= current %d queues", queues, m.Queues)
	}
	if queues > MaxShards {
		return nil, fmt.Errorf("shardmap: %d queues exceeds the %d-shard cap", queues, MaxShards)
	}
	next := m.Clone()
	next.Queues = queues
	mig := &Migration{Sources: m.allShards()}
	for slot := 0; slot < Slots; slot++ {
		q := slot % queues
		if q < m.Queues {
			continue // slot stays with its current owner
		}
		if cur, ok := next.Overrides[slot]; ok && cur == q {
			continue
		}
		next.Overrides[slot] = q
		mig.Slots = append(mig.Slots, slot)
		mig.Dests = appendUnique(mig.Dests, q)
	}
	if len(mig.Slots) == 0 {
		return nil, nil
	}
	next.Mig = mig
	return next, nil
}

// PlanShrink plans shrinking to `queues` shard queues (not below Base: the
// default route's modulus cannot be re-spread without moving every
// segment). Slots overridden to a removed shard revert to their previous
// route; the surviving shards are all potential destinations.
func (m *Map) PlanShrink(queues int) (*Map, error) {
	if queues >= m.Queues {
		return nil, fmt.Errorf("shardmap: shrink to %d >= current %d queues", queues, m.Queues)
	}
	if queues < m.Base {
		return nil, fmt.Errorf("shardmap: cannot shrink below the base modulus %d", m.Base)
	}
	for _, sp := range m.Splits {
		for _, s := range sp.Shards {
			if s >= queues {
				return nil, fmt.Errorf("shardmap: split %s targets shard %d; merge it first", sp.Prefix, s)
			}
		}
	}
	next := m.Clone()
	next.Queues = queues
	mig := &Migration{}
	for slot, s := range m.Overrides {
		if s < queues {
			continue
		}
		delete(next.Overrides, slot)
		// Reverting to the base route scatters the slot's segments over
		// the base shards; keep the override when the slot must stay off
		// its base shard? No: base shards all survive (queues >= Base).
		mig.Slots = append(mig.Slots, slot)
		mig.Sources = appendUnique(mig.Sources, s)
	}
	if len(mig.Slots) == 0 {
		next.Mig = nil
		return next, nil // no traffic to move: just retire the queues
	}
	sort.Ints(mig.Slots)
	mig.Dests = next.allShards()
	next.Mig = mig
	return next, nil
}

// PlanSplit plans sub-splitting a hot top-level subtree over `ways` new
// shard queues appended at the end of the queue range. A prefix that is
// already split is re-split over fresh targets (the old targets become
// sources).
func (m *Map) PlanSplit(prefix string, ways int) (*Map, error) {
	if err := validatePrefix(prefix); err != nil {
		return nil, err
	}
	if ways < 2 {
		return nil, fmt.Errorf("shardmap: split needs >= 2 ways, got %d", ways)
	}
	if m.Queues+ways > MaxShards {
		return nil, fmt.Errorf("shardmap: split to %d queues exceeds the %d-shard cap", m.Queues+ways, MaxShards)
	}
	next := m.Clone()
	targets := make([]int, ways)
	for i := range targets {
		targets[i] = m.Queues + i
	}
	mig := &Migration{Prefixes: []string{prefix}, Dests: targets}
	if old := m.split(prefix[1:]); old != nil {
		mig.Sources = append([]int(nil), old.Shards...)
		for i := range next.Splits {
			if next.Splits[i].Prefix == prefix {
				next.Splits[i].Shards = targets
			}
		}
	} else {
		mig.Sources = []int{m.ShardFor(prefix)}
		next.Splits = append(next.Splits, Split{Prefix: prefix, Shards: targets})
	}
	next.Queues = m.Queues + ways
	next.Mig = mig
	return next, nil
}

// PlanMerge plans folding a split subtree back onto its pre-split route.
// The split's target queues stay provisioned but idle (PlanShrink retires
// trailing queues once nothing routes to them).
func (m *Map) PlanMerge(prefix string) (*Map, error) {
	if err := validatePrefix(prefix); err != nil {
		return nil, err
	}
	old := m.split(prefix[1:])
	if old == nil {
		return nil, fmt.Errorf("shardmap: %s is not split", prefix)
	}
	next := m.Clone()
	for i := range next.Splits {
		if next.Splits[i].Prefix == prefix {
			next.Splits = append(next.Splits[:i], next.Splits[i+1:]...)
			break
		}
	}
	next.Mig = &Migration{
		Prefixes: []string{prefix},
		Sources:  append([]int(nil), old.Shards...),
		Dests:    []int{next.ShardFor(prefix)},
	}
	return next, nil
}

// Flip finalizes a gated transition: Epoch bumps, the migration gate
// clears, affected generations bump again, and every destination's SeqBase
// rises past `bound` — the largest txid any source shard could have minted
// before its fence — so migrated paths' mzxids never regress.
func (m *Map) Flip(bound int64) *Map {
	f := m.Clone()
	if f.Mig == nil {
		return f
	}
	base := bound/Stride + 1
	for _, dst := range f.Mig.Dests {
		if f.SeqBase[dst] < base {
			f.SeqBase[dst] = base
		}
	}
	f.bumpGens(f.Mig.affected())
	f.Mig = nil
	f.Epoch++
	return f
}

func appendUnique(xs []int, v int) []int {
	for _, x := range xs {
		if x == v {
			return xs
		}
	}
	return append(xs, v)
}

// String renders the live map for dumps (fkcli reshard map).
func (m *Map) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "epoch %d  base %d  queues %d  overrides %d", m.Epoch, m.Base, m.Queues, len(m.Overrides))
	for _, sp := range m.Splits {
		fmt.Fprintf(&b, "\n  split %s -> %v", sp.Prefix, sp.Shards)
	}
	if len(m.SeqBase) > 0 {
		keys := make([]int, 0, len(m.SeqBase))
		for k := range m.SeqBase {
			keys = append(keys, k)
		}
		sort.Ints(keys)
		for _, k := range keys {
			fmt.Fprintf(&b, "\n  seqbase shard %d: %d", k, m.SeqBase[k])
		}
	}
	if m.Mig != nil {
		fmt.Fprintf(&b, "\n  MIGRATING slots=%v prefixes=%v sources=%v dests=%v",
			m.Mig.Slots, m.Mig.Prefixes, m.Mig.Sources, m.Mig.Dests)
	}
	return b.String()
}

package histcheck

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"time"

	"faaskeeper/internal/core"
	"faaskeeper/internal/sim"
	"faaskeeper/internal/znode"
)

// Violation is one invariant breach found in a history.
type Violation struct {
	Invariant string `json:"invariant"`
	Session   string `json:"session,omitempty"`
	Path      string `json:"path,omitempty"`
	Detail    string `json:"detail"`
}

func (v Violation) String() string {
	return fmt.Sprintf("[%s] session=%s path=%s: %s", v.Invariant, v.Session, v.Path, v.Detail)
}

// CheckOpts says what a history alone does not.
type CheckOpts struct {
	// OpenSessions are sessions still connected at the end of the run —
	// the only ones whose armed-but-never-fired watches can be judged.
	OpenSessions map[string]bool

	// Shards is the deployment's write shard count: a txid is minted by
	// shard txid mod Shards, and a session's acks from one shard carry
	// strictly increasing txids. 0 means 1.
	Shards int

	// AtomicMulti says the user store applies a multi()'s writes at one
	// instant (core.AtomicApplier, the KV store): a reader that saw any op
	// of a multi() sees every other op of it at or past its txid. Without
	// it the ops are applied in order, and only the earlier ops are bound.
	AtomicMulti bool

	// LostWatchGap is how long after an arm a read must complete to count
	// as lost-watch evidence: a write already in the leader pipeline when
	// the registration landed may legally miss it, so only changes
	// observed well past any in-flight latency prove the watch was
	// dropped. 0 means 5s (virtual).
	LostWatchGap int64
}

// Timeliness is the staleness bound of ZooKeeper's timeliness guarantee as
// Check judges it. The guarantee names no number. Every read path returns a
// write's value, or a newer one, once the write is answered: the leader
// writes every store and installs or invalidates every cache node before it
// answers. So the bound only has to outlast a read in flight.
const Timeliness = 5 * time.Second

// version is one entry of a path's version list: a write acked at its
// txid, or a write of unknown txid (indeterminate, or a create or delete
// answered without one) that a read placed at the mzxid it observed.
type version struct {
	txid    int64
	op      string // create|set|delete; empty when placed by a read
	value   string
	ver     int32 // an acked set's data version, 0 if not recorded
	end     sim.Time
	acked   bool
	flagged bool // its mzxid was already observed with other data
}

// origin is how the writes of one value to one path concluded.
type origin struct {
	ok, indet bool
	writes    int
	multi     *Event // the multi() that wrote the value, if no other write did
}

// deletion is a delete that did not definitely fail.
type deletion struct {
	start, end sim.Time
	acked      bool
}

// bound is what one session knows of one path: the newest mzxid it read,
// wrote or was notified of, the txid of a multi() it observed on a sibling
// path, the values its own writes leave on a path no other session writes,
// the latest evidence that the node existed and the invariant a "no node"
// read after it breaks, and its successful reads. A notification bounds
// only the reads that start after it (notes): the session's callbacks run
// beside its reads.
type bound struct {
	mz, multi int64
	vals      map[string]bool
	seen      sim.Time
	seenBy    string
	reads     []*Event
	notes     []*Event
}

func (b *bound) see(at sim.Time, by string) {
	if b.seenBy == "" || at >= b.seen {
		b.seen, b.seenBy = at, by
	}
}

type key struct {
	session string
	path    string
	n       int64 // a watch id, or a minting shard
}

// model indexes a history: every path's version list (its acked writes in
// txid order, which is the order a shard's leader committed them, and the
// writes reads placed among them), how each written value concluded, and
// each session's bound on each path.
type model struct {
	opts     CheckOpts
	versions map[string][]version
	origins  map[string]map[string]*origin
	writers  map[string]map[string]bool
	partial  map[string]bool // a write of unknown txid touched the path
	deletes  map[string][]deletion
	at       map[int64]*Event // the acked write at each txid
	bounds   map[key]*bound
	lastAck  map[key]int64       // a session's newest ack per minting shard
	lastFire map[key]int64       // a session's newest notification per minting shard
	reads    map[string][]*Event // each session's successful data reads
	out      []Violation
}

func (m *model) flag(inv, session, path, format string, args ...any) {
	m.out = append(m.out, Violation{Invariant: inv, Session: session, Path: path, Detail: fmt.Sprintf(format, args...)})
}

func (m *model) bound(session, path string) *bound {
	k := key{session: session, path: path}
	if m.bounds[k] == nil {
		m.bounds[k] = &bound{}
	}
	return m.bounds[k]
}

// writes returns the create, set and delete ops e carries (a single write
// as one op at its ack's txid), and whether e was acked or may have run.
func writes(e *Event) (ops []SubOp, acked, indet bool) {
	acked, indet = e.Err == "", e.Err != "" && !e.Definite
	if e.Kind == KindWrite {
		return []SubOp{{Op: e.Op, Path: e.Path, Value: e.Value, Txid: e.Mzxid}}, acked, indet
	}
	for _, op := range e.Ops {
		if op.Op != "check" {
			ops = append(ops, op)
		}
	}
	return ops, acked, indet
}

func byTxid(v version, t int64) int { return cmp.Compare(v.txid, t) }

// Check replays a history against the model and returns every violation
// found; an empty slice is a clean history. Per path, the acked writes in
// txid order are the committed order. A write of unknown txid is placed
// only where a read observes it, by mzxid, or else may not have run. Each
// session carries one bound per path — its own writes, its reads and its
// notifications — and each read, arm and notification is judged against
// that bound and the path's versions. The clauses, by invariant name:
//   - phantom-value, failed-write-visible: a read value some write that
//     did not definitely fail produced, and on a path whose every write
//     carries its txid, a read mzxid an acked write carries;
//   - same-mzxid-different-data: one version per mzxid;
//   - mzxid-regression, read-your-writes, multi-atomicity: no read below
//     the session's bound, whether raised by its reads, its own writes
//     (values too, on a path only it writes), or a multi() it observed on
//     a later op's path (a multi()'s ops commit at one txid and are
//     applied in order) — on any other op's path with AtomicMulti;
//   - listed-unreadable (and the two above): a node the session listed,
//     wrote or read answers "no node" only after a delete that may have
//     landed since;
//   - write-txid-order, duplicate-txid: Z2 per minting shard, one ack per
//     txid;
//   - illegal-write: on a path whose every write carries its txid, a
//     create finds no node, a set or delete finds one, and a set raises
//     the version by one;
//   - watch-stale-read, watch-fired-late, phantom-notification: a
//     notification precedes its owner's reads of newer state (Z4) — of its
//     path, and once the watch was armed before the firing write's ack, of
//     any path at or past the write's txid from the write's shard —
//     announces the first acked write past the arming read, matches a
//     write, and fires at most once per arm;
//   - notification-order: a session gets the notifications one shard
//     minted in txid order (Z4);
//   - lost-watch: an open session's silent arm with changes read past
//     LostWatchGap; timeliness: a read starting Timeliness after an ack
//     returns it or newer.
func Check(h *History, opts CheckOpts) []Violation {
	if opts.LostWatchGap == 0 {
		opts.LostWatchGap = int64(5 * time.Second)
	}
	opts.Shards = max(opts.Shards, 1)
	m := &model{opts: opts, versions: map[string][]version{}, origins: map[string]map[string]*origin{},
		writers: map[string]map[string]bool{}, partial: map[string]bool{}, deletes: map[string][]deletion{},
		at: map[int64]*Event{}, bounds: map[key]*bound{}, lastAck: map[key]int64{}, lastFire: map[key]int64{},
		reads: map[string][]*Event{}}
	for i := range h.Events {
		m.index(&h.Events[i])
	}
	paths := make([]string, 0, len(m.versions))
	for p, vs := range m.versions {
		slices.SortStableFunc(vs, func(a, b version) int { return cmp.Compare(a.txid, b.txid) })
		paths = append(paths, p)
	}
	slices.Sort(paths) // findings in a fixed order
	for _, p := range paths {
		if !m.partial[p] {
			m.replay(p, m.versions[p])
		}
	}
	pending := map[key]*Event{}
	unfired := map[key]int{} // arms (failed ones too: they may have registered) less fires
	for i := range h.Events {
		e := &h.Events[i]
		k := key{session: e.Session, n: e.WatchID}
		switch {
		case e.Kind == KindWrite || e.Kind == KindMulti:
			m.ack(e)
		case e.Kind == KindRead:
			m.read(e)
		case e.Kind == KindWatchArm:
			unfired[k]++
			if e.Err == "" {
				m.arm(e)
				pending[k] = e
			}
		case e.Kind == KindWatchFire:
			unfired[k]--
			m.fire(e, pending[k])
			delete(pending, k)
		}
	}
	for i := range h.Events {
		a := &h.Events[i]
		k := key{session: a.Session, n: a.WatchID}
		if pending[k] == a && opts.OpenSessions[a.Session] {
			m.lost(a)
		}
		if a.Kind == KindWatchFire && unfired[k] < 0 {
			m.flag("phantom-notification", a.Session, a.Path, "one-shot watch %d fired %d more times than it was armed",
				a.WatchID, -unfired[k])
			unfired[k] = 0
		}
	}
	sort.SliceStable(m.out, func(i, j int) bool { return m.out[i].Invariant < m.out[j].Invariant })
	return m.out
}

// WatchFiredLate returns Check's watch-fired-late findings alone: a
// one-shot data watch armed by a read at mzxid r that fires with txid t
// while an acked write on its path has a txid in (r, t) missed that write.
func WatchFiredLate(h *History) []Violation {
	return slices.DeleteFunc(Check(h, CheckOpts{}), func(v Violation) bool { return v.Invariant != "watch-fired-late" })
}

// index records e's writes: acked ones at their txids, every value's
// outcome, every delete that may have run, and each path's writers.
func (m *model) index(e *Event) {
	if e.Kind != KindWrite && e.Kind != KindMulti {
		return
	}
	ops, acked, indet := writes(e)
	for _, op := range ops {
		p := op.Path
		if m.writers[p] == nil {
			m.writers[p] = map[string]bool{}
		}
		m.writers[p][e.Session] = true
		if op.Op == "delete" {
			if acked || indet {
				m.deletes[p] = append(m.deletes[p], deletion{e.Start, e.End, acked})
			}
		} else {
			if m.origins[p] == nil {
				m.origins[p] = map[string]*origin{}
			}
			o := m.origins[p][op.Value]
			if o == nil {
				o = &origin{}
				m.origins[p][op.Value] = o
			}
			o.ok, o.indet, o.writes, o.multi = o.ok || acked, o.indet || indet, o.writes+1, nil
			if e.Kind == KindMulti && o.writes == 1 {
				o.multi = e
			}
		}
		if !acked || op.Txid <= 0 {
			m.partial[p] = m.partial[p] || acked || indet
			continue
		}
		if op.Txid != ops[0].Txid {
			m.flag("multi-atomicity", e.Session, p, "multi() ops committed at txids %d and %d", ops[0].Txid, op.Txid)
		}
		if prev := m.at[op.Txid]; prev != nil && prev != e {
			m.flag("duplicate-txid", e.Session, p, "txid %d acked to %s on %s and to %s on %s",
				op.Txid, prev.Session, prev.Path, e.Session, p)
		}
		m.at[op.Txid] = e
		ver := int32(0)
		if e.Kind == KindWrite {
			ver = e.Version
		}
		m.versions[p] = append(m.versions[p], version{txid: op.Txid, op: op.Op, value: op.Value, ver: ver, end: e.End, acked: true})
	}
}

// replay walks the acked writes of a path whose every write carries its
// txid, in txid order, from an unknown first state.
func (m *model) replay(p string, vs []version) {
	known, exists, ver := false, false, int32(-1)
	for _, v := range vs {
		if known && exists == (v.op == "create") || v.op == "set" && v.ver > 0 && ver >= 0 && v.ver != ver+1 {
			m.flag("illegal-write", "", p, "%s acked at txid %d (version %d) on a node that exists=%v at version %d",
				v.op, v.txid, v.ver, exists, ver)
		}
		known, exists, ver = true, v.op != "delete", -1
		if v.op == "create" {
			ver = 0
		} else if v.op == "set" && v.ver > 0 {
			ver = v.ver
		}
	}
}

// ack applies one of a session's writes to its bounds: Z2 per minting
// shard, the acked txid, existence, and the values a sole writer reads.
func (m *model) ack(e *Event) {
	ops, acked, indet := writes(e)
	if acked && len(ops) > 0 && ops[0].Txid > 0 {
		t := ops[0].Txid
		k := key{session: e.Session, n: t % int64(m.opts.Shards)}
		if prev := m.lastAck[k]; prev > 0 && t <= prev {
			m.flag("write-txid-order", e.Session, e.Path, "write ack txid %d after %d from shard %d", t, prev, k.n)
		}
		m.lastAck[k] = t
	}
	for _, op := range ops {
		b := m.bound(e.Session, op.Path)
		if acked {
			b.mz = max(b.mz, op.Txid)
		}
		if op.Op == "delete" || !acked && !indet {
			continue
		}
		if acked {
			b.see(e.Start, "read-your-writes")
		}
		if len(m.writers[op.Path]) == 1 {
			if acked || b.vals == nil {
				b.vals = map[string]bool{}
			}
			b.vals[op.Value] = true
		}
	}
}

// read judges one read against the session's bound and the path's
// versions.
func (m *model) read(e *Event) {
	b := m.bound(e.Session, e.Path)
	switch {
	case e.Err == core.ErrNoNode.Error():
		if b.seenBy != "" && !slices.ContainsFunc(m.deletes[e.Path], func(d deletion) bool {
			return d.start < e.End && !(d.acked && d.end < b.seen)
		}) {
			m.flag(b.seenBy, e.Session, e.Path, "read at %v found no node, though the session saw it at %v and no delete may have landed since",
				e.Start, b.seen)
		}
		return
	case e.Err != "":
		return
	case e.Op == "children":
		m.list(e)
	default:
		m.observe(e, b)
		m.reads[e.Session] = append(m.reads[e.Session], e)
	}
	b.reads = append(b.reads, e)
}

// list records a listing as evidence that each listed child exists.
func (m *model) list(e *Event) {
	for _, kid := range e.Children {
		m.bound(e.Session, znode.Join(e.Path, kid)).see(e.Start, "listed-unreadable")
	}
}

// observe judges a data read's value and mzxid, and raises the session's
// bounds: on the path, and, when the value read is a multi()'s, on the
// paths of that multi()'s earlier ops, which the leader applies first.
func (m *model) observe(e *Event, b *bound) {
	o := m.origins[e.Path][e.Value]
	switch {
	case e.Value == "":
	case o == nil:
		m.flag("phantom-value", e.Session, e.Path, "read %q which no recorded write produced", e.Value)
	case !o.ok && !o.indet:
		m.flag("failed-write-visible", e.Session, e.Path, "read %q produced only by definitely-failed writes", e.Value)
	}
	if vs := m.versions[e.Path]; e.Mzxid > 0 {
		i, found := slices.BinarySearchFunc(vs, e.Mzxid, byTxid)
		if !found {
			if !m.partial[e.Path] {
				m.flag("phantom-value", e.Session, e.Path, "read %q at mzxid %d, which no acked write to the path carries", e.Value, e.Mzxid)
			}
			m.versions[e.Path] = slices.Insert(vs, i, version{txid: e.Mzxid, value: e.Value})
		} else if (vs[i].op == "delete" || vs[i].value != e.Value) && !vs[i].flagged {
			vs[i].flagged = true
			m.flag("same-mzxid-different-data", e.Session, e.Path, "mzxid %d observed as %q and %q", e.Mzxid, vs[i].value, e.Value)
		}
	}
	b.notes = slices.DeleteFunc(b.notes, func(n *Event) bool {
		if n.End <= e.Start {
			b.mz = max(b.mz, n.Mzxid)
		}
		return n.End <= e.Start
	})
	if e.Mzxid > 0 && e.Mzxid < b.mz {
		m.flag("mzxid-regression", e.Session, e.Path, "read mzxid %d after observing %d", e.Mzxid, b.mz)
	}
	if e.Mzxid < b.multi {
		m.flag("multi-atomicity", e.Session, e.Path, "read mzxid %d after a multi() at txid %d was read on a sibling path (torn multi visible)",
			e.Mzxid, b.multi)
	}
	if b.vals != nil && !b.vals[e.Value] {
		acc := make([]string, 0, len(b.vals))
		for v := range b.vals {
			acc = append(acc, v)
		}
		sort.Strings(acc)
		m.flag("read-your-writes", e.Session, e.Path, "read %q, acceptable %v", e.Value, acc)
	}
	b.mz = max(b.mz, e.Mzxid)
	b.see(e.Start, "mzxid-regression")
	if o != nil && o.multi != nil {
		for _, op := range o.multi.Ops {
			if op.Path == e.Path && !m.opts.AtomicMulti {
				break
			}
			if op.Path == e.Path || op.Op == "check" {
				continue
			}
			sib := m.bound(e.Session, op.Path)
			sib.multi = max(sib.multi, e.Mzxid)
		}
	}
	m.timely(e)
}

// timely judges a read or a data watch's arming read: one that starts more
// than Timeliness after a write to its path was acked returns that write's
// txid or a newer mzxid.
func (m *model) timely(e *Event) {
	missed := int64(0)
	for _, v := range m.versions[e.Path] {
		if v.acked && e.Start > v.end+Timeliness && v.txid > max(e.Mzxid, missed) {
			missed = v.txid
		}
	}
	if missed > 0 {
		m.flag("timeliness", e.Session, e.Path, "read at %v returned mzxid %d, missing txid %d answered more than %v before",
			e.Start, e.Mzxid, missed, Timeliness)
	}
}

// arm records a watch's arming read: a listing, or a data read that
// carries no value.
func (m *model) arm(e *Event) {
	if e.Op == "children" {
		m.list(e)
		return
	}
	b := m.bound(e.Session, e.Path)
	b.mz = max(b.mz, e.Mzxid)
	m.timely(e)
}

// fire judges a notification against the arm it consumes, and against the
// session's earlier notifications from its shard.
func (m *model) fire(e, arm *Event) {
	b := m.bound(e.Session, e.Path)
	shards := int64(m.opts.Shards)
	if e.Mzxid > 0 {
		k := key{session: e.Session, n: e.Mzxid % shards}
		if last := m.lastFire[k]; e.Mzxid < last {
			m.flag("notification-order", e.Session, e.Path, "notification of txid %d after one of txid %d from shard %d",
				e.Mzxid, last, k.n)
		}
		m.lastFire[k] = max(m.lastFire[k], e.Mzxid)
	}
	if arm != nil {
		for _, r := range b.reads {
			if r.Op != "children" && r.End >= arm.End && r.End < e.End && r.Mzxid > e.Mzxid {
				m.flag("watch-stale-read", e.Session, e.Path, "read mzxid %d before delivery of watch txid %d", r.Mzxid, e.Mzxid)
			}
		}
		// Armed before the firing write was acked, and not on a value it
		// already read: the write's stamp, and every later one of its shard
		// while the delivery is in flight, holds the session's reads of
		// other paths at or past it until the notification. (The watched
		// path's own value at the txid is left out: the client's alias
		// check, Deployment.Armed, can read the registration before the
		// claim's clear lands, which one shard runs under the flush.)
		if w := m.at[e.Mzxid]; w != nil && arm.End < w.End && arm.Mzxid < e.Mzxid {
			for _, r := range m.reads[e.Session] {
				if r.Path != e.Path && r.End >= arm.End && r.End < e.End && r.Mzxid >= e.Mzxid && r.Mzxid%shards == e.Mzxid%shards {
					m.flag("watch-stale-read", e.Session, r.Path, "read mzxid %d before delivery of watch %d on %s, fired by txid %d",
						r.Mzxid, e.WatchID, e.Path, e.Mzxid)
				}
			}
		}
	}
	if arm != nil && arm.Op != "children" {
		vs := m.versions[e.Path]
		i, _ := slices.BinarySearchFunc(vs, arm.Mzxid+1, byTxid)
		for i < len(vs) && !vs[i].acked {
			i++
		}
		if i < len(vs) && vs[i].txid < e.Mzxid {
			m.flag("watch-fired-late", e.Session, e.Path, "watch %d armed at mzxid %d fired with txid %d, missing acked %s %d",
				e.WatchID, arm.Mzxid, e.Mzxid, vs[i].op, vs[i].txid)
		}
		w, matched := m.at[e.Mzxid], len(m.writers[e.Path]) == 0 || m.partial[e.Path]
		if w != nil {
			ops, _, _ := writes(w)
			matched = slices.ContainsFunc(ops, func(op SubOp) bool { return op.Path == e.Path && (e.Op == "" || e.Op == op.Op) })
		}
		if !matched {
			m.flag("phantom-notification", e.Session, e.Path, "watch %d fired with txid %d, which no write to the path matches",
				e.WatchID, e.Mzxid)
		}
	}
	b.notes = append(b.notes, e)
}

// lost judges an open session's arm that never fired: a child watch whose
// owner later, past the gap, read another child set, or a data watch whose
// owner read two distinct newer mzxids past the gap.
func (m *model) lost(a *Event) {
	distinct := map[int64]bool{}
	for _, r := range m.bound(a.Session, a.Path).reads {
		switch {
		case int64(r.End) <= int64(a.End)+m.opts.LostWatchGap:
		case a.Op == "children" && r.Op == "children" && !slices.Equal(r.Children, a.Children):
			m.flag("lost-watch", a.Session, a.Path, "child watch %d armed on children %v never fired, yet %v were read later",
				a.WatchID, a.Children, r.Children)
			return
		case a.Op != "children" && r.Op != "children" && r.Mzxid > a.Mzxid:
			distinct[r.Mzxid] = true
		}
	}
	if len(distinct) >= 2 {
		m.flag("lost-watch", a.Session, a.Path, "watch %d armed at mzxid %d never fired despite %d observed changes",
			a.WatchID, a.Mzxid, len(distinct))
	}
}

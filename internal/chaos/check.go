package chaos

import (
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
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

// CheckOpts parameterizes the checker with the workload's structure: which
// path pairs are written atomically, which paths have a single owning
// writer, and which sessions were still alive when the history ended.
type CheckOpts struct {
	// SwapPairs lists [a, b] path pairs a multi() always sets to the same
	// value "...#k" with k strictly increasing, applied in (a, b) order. A
	// reader that reads b then a must never see a's counter behind b's —
	// the reverse-order probe that exposes torn multi() commits.
	SwapPairs [][2]string

	// PrivatePrefix marks single-writer paths: only the session named in
	// the path writes them, so read-your-writes is checked exactly.
	PrivatePrefix string

	// OpenSessions are sessions still connected at the end of the run —
	// the only ones whose armed-but-never-fired watches can be judged.
	OpenSessions map[string]bool

	// Shards is the deployment's write shard count: a txid is minted by
	// shard txid mod Shards, and a session's acks from one shard carry
	// strictly increasing txids. 0 means 1.
	Shards int

	// LostWatchGap is how long after an arm a read must complete to count
	// as lost-watch evidence: a write already in the leader pipeline when
	// the registration landed may legally miss it, so only changes
	// observed well past any in-flight latency prove the watch was
	// dropped. 0 means 5s (virtual).
	LostWatchGap int64
}

// writeStatus accumulates how a (path, value) write concluded across the
// history: committed, indeterminate, or definitely-failed.
type writeStatus struct{ ok, indet bool }

type spKey struct{ session, path string }

// ssKey names one session's writes through one shard's leader.
type ssKey struct {
	session string
	shard   int64
}

// swKey names one session's watch: a one-shot arm stays pending under it
// until the fire that consumes it.
type swKey struct {
	session string
	wid     int64
}

// Check validates a history against the linearizability-style invariants
// of the client API: per-session per-path mzxid monotonicity, write-ack
// txid ordering per session and minting shard (Z2; a multi() is one ack
// at its one txid), value provenance (a read never returns data no
// non-failed write produced), a single data value per mzxid, strict
// read-your-writes on single-writer paths, reverse-order multi()
// atomicity, and watch ordering (no stale read before a delivered
// notification, no silently lost watch — a child watch judged by child
// sets, never by txids, which order only within a shard —, no fire later
// than the first acked change after the arming read: WatchFiredLate),
// timeliness (Untimely), and a listed child readable (listedUnreadable).
// It returns every violation found; an empty slice is a clean history.
func Check(h *History, opts CheckOpts) []Violation {
	if opts.PrivatePrefix == "" {
		opts.PrivatePrefix = "/p-"
	}
	if opts.LostWatchGap == 0 {
		opts.LostWatchGap = int64(5 * time.Second)
	}
	shards := int64(max(opts.Shards, 1))
	var out []Violation
	add := func(inv, session, path, format string, args ...any) {
		out = append(out, Violation{
			Invariant: inv, Session: session, Path: path,
			Detail: fmt.Sprintf(format, args...),
		})
	}

	// ---- Pass 1: value provenance and mzxid->value maps over the whole
	// history (reads anywhere may observe writes from any session).
	prov := map[string]map[string]*writeStatus{} // path -> value -> status
	note := func(path, value string, ok, indet bool) {
		m := prov[path]
		if m == nil {
			m = map[string]*writeStatus{}
			prov[path] = m
		}
		st := m[value]
		if st == nil {
			st = &writeStatus{}
			m[value] = st
		}
		st.ok = st.ok || ok
		st.indet = st.indet || indet
	}
	mzval := map[string]map[int64]string{} // path -> mzxid -> value
	flaggedMz := map[string]bool{}
	noteMz := func(session, path string, mzxid int64, value string) {
		if mzxid <= 0 {
			return
		}
		m := mzval[path]
		if m == nil {
			m = map[int64]string{}
			mzval[path] = m
		}
		if v, ok := m[mzxid]; ok {
			if v != value {
				k := fmt.Sprintf("%s@%d", path, mzxid)
				if !flaggedMz[k] {
					flaggedMz[k] = true
					add("same-mzxid-different-data", session, path,
						"mzxid %d observed as %q and %q", mzxid, v, value)
				}
			}
			return
		}
		m[mzxid] = value
	}

	for _, e := range h.Events {
		switch e.Kind {
		case KindWrite:
			if e.Op != "create" && e.Op != "set" {
				continue
			}
			note(e.Path, e.Value, e.Err == "", e.Err != "" && !e.Definite)
			if e.Err == "" && e.Op == "set" {
				noteMz(e.Session, e.Path, e.Mzxid, e.Value)
			}
		case KindMulti:
			for _, op := range e.Ops {
				if op.Op != "create" && op.Op != "set" {
					continue
				}
				switch {
				case op.Code == "ok" && e.Err == "":
					note(op.Path, op.Value, true, false)
					if op.Op == "set" {
						noteMz(e.Session, op.Path, op.Txid, op.Value)
					}
				case e.Err != "" && !e.Definite:
					note(op.Path, op.Value, false, true)
				default:
					// Definite rollback: the value must never be read.
					note(op.Path, op.Value, false, false)
				}
			}
		case KindRead:
			if e.Err == "" {
				noteMz(e.Session, e.Path, e.Mzxid, e.Value)
			}
		}
	}

	// ---- Pass 2: per-(session, path) and per-(session, shard) ordering
	// chains, read-your-writes, swap-pair counters, and watch pairing — one
	// ordered sweep.
	lastObs := map[spKey]int64{}       // newest mzxid observed by session on path
	lastWrite := map[ssKey]int64{}     // newest own write-ack txid per shard
	ryw := map[spKey]map[string]bool{} // acceptable values on private paths

	pairOfB := map[string]int{}
	pairOfA := map[string]int{}
	for i, p := range opts.SwapPairs {
		pairOfA[p[0]] = i
		pairOfB[p[1]] = i
	}
	lastB := map[string]map[int]int64{} // session -> pair -> counter read on b

	type armRec struct {
		r    int64    // mzxid of the arming read
		end  int64    // when the arm completed
		kids []string // a child watch's arming read's child list
		kid  bool     // a child watch
	}
	type fireRec struct {
		path    string
		t       int64 // notification txid
		armEnd  int64
		fireEnd int64
	}
	pendingArm := map[swKey]armRec{}
	armPath := map[swKey]string{}
	var fires []struct {
		session string
		f       fireRec
	}
	reads := map[spKey][]struct{ end, mzxid int64 }{} // successful reads
	type kidRead struct {
		end  int64
		kids []string
	}
	kidReads := map[spKey][]kidRead{} // successful children reads

	obsUp := func(k spKey, m int64) {
		if m > lastObs[k] {
			lastObs[k] = m
		}
	}
	// ackWrite checks one acked write's txid against the session's last
	// ack from the shard that minted it (Z2).
	ackWrite := func(session, path string, txid int64) {
		if txid <= 0 {
			return
		}
		k := ssKey{session, txid % shards}
		if prev := lastWrite[k]; prev > 0 && txid <= prev {
			add("write-txid-order", session, path,
				"write ack txid %d after %d from shard %d", txid, prev, k.shard)
		}
		lastWrite[k] = txid
	}
	rywWrite := func(session, path, value string, committed bool) {
		if !strings.HasPrefix(path, opts.PrivatePrefix) {
			return
		}
		k := spKey{session, path}
		if committed {
			ryw[k] = map[string]bool{value: true}
		} else {
			if ryw[k] == nil {
				ryw[k] = map[string]bool{}
			}
			ryw[k][value] = true
		}
	}

	for _, e := range h.Events {
		switch e.Kind {
		case KindWrite:
			if e.Err == "" {
				ackWrite(e.Session, e.Path, e.Mzxid)
				obsUp(spKey{e.Session, e.Path}, e.Mzxid)
				if e.Op == "create" || e.Op == "set" {
					rywWrite(e.Session, e.Path, e.Value, true)
				}
			} else if !e.Definite && (e.Op == "create" || e.Op == "set") {
				rywWrite(e.Session, e.Path, e.Value, false)
			}
		case KindMulti:
			if e.Err != "" || len(e.Ops) == 0 {
				continue
			}
			ackWrite(e.Session, e.Path, e.Ops[0].Txid) // every op's txid
			for _, op := range e.Ops {
				if op.Code == "ok" {
					obsUp(spKey{e.Session, op.Path}, op.Txid)
				}
			}
		case KindRead:
			if e.Err != "" {
				continue
			}
			k := spKey{e.Session, e.Path}
			if e.Op == "children" {
				kidReads[k] = append(kidReads[k], kidRead{int64(e.End), e.Children})
				continue
			}
			if e.Mzxid > 0 && e.Mzxid < lastObs[k] {
				add("mzxid-regression", e.Session, e.Path,
					"read mzxid %d after observing %d", e.Mzxid, lastObs[k])
			}
			obsUp(k, e.Mzxid)
			reads[k] = append(reads[k], struct{ end, mzxid int64 }{int64(e.End), e.Mzxid})

			// Provenance: the value must come from a write that was not a
			// definite failure ("" is the pre-write state of any node).
			if e.Value != "" {
				st := prov[e.Path][e.Value]
				if st == nil {
					add("phantom-value", e.Session, e.Path,
						"read %q which no recorded write produced", e.Value)
				} else if !st.ok && !st.indet {
					add("failed-write-visible", e.Session, e.Path,
						"read %q produced only by definitely-failed writes", e.Value)
				}
			}

			// Read-your-writes on single-writer paths.
			if strings.HasPrefix(e.Path, opts.PrivatePrefix) &&
				strings.Contains(e.Path, e.Session) {
				if acc := ryw[k]; acc != nil && !acc[e.Value] {
					add("read-your-writes", e.Session, e.Path,
						"read %q, acceptable %v", e.Value, keysOf(acc))
				}
			}

			// Swap pairs: reading b then a must never show a behind b.
			if pi, isB := pairOfB[e.Path]; isB {
				if kc, ok := swapCounter(e.Value); ok {
					m := lastB[e.Session]
					if m == nil {
						m = map[int]int64{}
						lastB[e.Session] = m
					}
					if kc > m[pi] {
						m[pi] = kc
					}
				}
			}
			if pi, isA := pairOfA[e.Path]; isA {
				if ka, ok := swapCounter(e.Value); ok {
					if kb, seen := lastB[e.Session][pi]; seen && ka < kb {
						add("multi-atomicity", e.Session, e.Path,
							"pair %v: read a=%d after b=%d (torn multi visible)",
							opts.SwapPairs[pi], ka, kb)
					}
				}
			}
		case KindWatchArm:
			if e.Err != "" {
				continue
			}
			k := swKey{e.Session, e.WatchID}
			pendingArm[k] = armRec{r: e.Mzxid, end: int64(e.End), kids: e.Children, kid: e.Op == "children"}
			armPath[k] = e.Path
		case KindWatchFire:
			k := swKey{e.Session, e.WatchID}
			if arm, ok := pendingArm[k]; ok {
				fires = append(fires, struct {
					session string
					f       fireRec
				}{e.Session, fireRec{path: e.Path, t: e.Mzxid, armEnd: arm.end, fireEnd: int64(e.End)}})
				delete(pendingArm, k)
			}
			obsUp(spKey{e.Session, e.Path}, e.Mzxid)
		}
	}

	// ---- Watch ordering: between arming and delivery, the owner must not
	// read state newer than the firing transaction (Z4's "notification
	// before the new state it announces").
	for _, fr := range fires {
		for _, r := range reads[spKey{fr.session, fr.f.path}] {
			if r.end >= fr.f.armEnd && r.end < fr.f.fireEnd && r.mzxid > fr.f.t {
				add("watch-stale-read", fr.session, fr.f.path,
					"read mzxid %d before delivery of watch txid %d", r.mzxid, fr.f.t)
			}
		}
	}

	// ---- Lost watches: an armed watch whose owner then observed two
	// distinct post-arm changes must have fired — the second change's
	// watch claim provably ran after the registration landed. A child
	// watch's arming read returns every child change committed before the
	// registration, so a child set its owner reads later, past the gap,
	// that differs from the armed one shows a change the watch had to fire
	// for.
	for k, arm := range pendingArm {
		if !opts.OpenSessions[k.session] {
			continue
		}
		path := armPath[k]
		if arm.kid {
			for _, r := range kidReads[spKey{k.session, path}] {
				if r.end > arm.end+opts.LostWatchGap && !slices.Equal(r.kids, arm.kids) {
					add("lost-watch", k.session, path,
						"child watch %d armed on children %v never fired, yet %v were read later",
						k.wid, arm.kids, r.kids)
					break
				}
			}
			continue
		}
		distinct := map[int64]bool{}
		for _, r := range reads[spKey{k.session, path}] {
			if r.end > arm.end+opts.LostWatchGap && r.mzxid > arm.r {
				distinct[r.mzxid] = true
			}
		}
		if len(distinct) >= 2 {
			add("lost-watch", k.session, path,
				"watch %d armed at mzxid %d never fired despite %d observed changes",
				k.wid, arm.r, len(distinct))
		}
	}

	out = append(out, WatchFiredLate(h)...)
	out = append(out, Untimely(h)...)
	out = append(out, listedUnreadable(h)...)
	sort.SliceStable(out, func(i, j int) bool { return out[i].Invariant < out[j].Invariant })
	return out
}

// WatchFiredLate checks that a one-shot watch armed by a read at mzxid r
// fires no later than the first acked write after r. A fire carrying txid t
// while the history holds an acked set on the watched path with a txid in
// (r, t) fired late: the watch missed that set and was delivered for a later
// one. Each such fire yields one "watch-fired-late" violation naming the
// smallest missed txid. An indeterminate set (no ack) proves nothing and is
// not counted. A child watch is not judged: a set changes no child list.
// Check runs it.
func WatchFiredLate(h *History) []Violation {
	setAcks := map[string][]int64{} // path -> acked set txids
	for _, e := range h.Events {
		switch {
		case e.Kind == KindWrite && e.Op == "set" && e.Err == "" && e.Mzxid > 0:
			setAcks[e.Path] = append(setAcks[e.Path], e.Mzxid)
		case e.Kind == KindMulti && e.Err == "":
			for _, op := range e.Ops {
				if op.Op == "set" && op.Code == "ok" && op.Txid > 0 {
					setAcks[op.Path] = append(setAcks[op.Path], op.Txid)
				}
			}
		}
	}
	armedAt := map[swKey]int64{} // pending one-shot arm -> mzxid of its read
	var out []Violation
	for _, e := range h.Events {
		k := swKey{e.Session, e.WatchID}
		switch e.Kind {
		case KindWatchArm:
			if e.Err == "" && e.Op != "children" {
				armedAt[k] = e.Mzxid
			}
		case KindWatchFire:
			r, ok := armedAt[k]
			if !ok {
				continue
			}
			delete(armedAt, k)
			missed := int64(0)
			for _, s := range setAcks[e.Path] {
				if s > r && s < e.Mzxid && (missed == 0 || s < missed) {
					missed = s
				}
			}
			if missed > 0 {
				out = append(out, Violation{
					Invariant: "watch-fired-late", Session: e.Session, Path: e.Path,
					Detail: fmt.Sprintf("watch %d armed at mzxid %d fired with txid %d, missing acked set %d",
						e.WatchID, r, e.Mzxid, missed),
				})
			}
		}
	}
	return out
}

// Timeliness is the staleness bound of ZooKeeper's timeliness guarantee as
// Untimely checks it. The guarantee names no number. Every read path
// returns a write's value, or a newer one, once the write is answered: the
// leader writes every store and installs or invalidates every cache node
// before it answers. So the bound only has to outlast a read in flight.
const Timeliness = 5 * time.Second

// Untimely checks ZooKeeper's timeliness guarantee: a read (or a watch's
// arming read) that starts more than Timeliness after a write to its path
// was answered returns that write's value or a newer one — an mzxid at or
// past the write's txid. Only answers that carry a txid count: acked sets
// and a multi()'s acked ops; a children read carries none and is not
// judged. Each stale read yields one "timeliness" violation naming the
// newest txid it missed. Check runs it.
func Untimely(h *History) []Violation {
	acks := map[string][]Event{} // path -> acked writes as (End, Mzxid: txid), in answer order
	var out []Violation
	for _, e := range h.Events {
		switch {
		case e.Kind == KindWrite && e.Err == "" && e.Mzxid > 0:
			acks[e.Path] = append(acks[e.Path], e)
		case e.Kind == KindMulti && e.Err == "":
			for _, op := range e.Ops {
				if op.Code == "ok" && op.Txid > 0 {
					acks[op.Path] = append(acks[op.Path], Event{End: e.End, Mzxid: op.Txid})
				}
			}
		case (e.Kind == KindRead || e.Kind == KindWatchArm) && e.Err == "" && e.Op != "children":
			missed := int64(0)
			for _, a := range acks[e.Path] {
				if e.Start > a.End+Timeliness && a.Mzxid > max(e.Mzxid, missed) {
					missed = a.Mzxid
				}
			}
			if missed > 0 {
				out = append(out, Violation{
					Invariant: "timeliness", Session: e.Session, Path: e.Path,
					Detail: fmt.Sprintf("read at %v returned mzxid %d, missing txid %d answered more than %v before",
						e.Start, e.Mzxid, missed, Timeliness),
				})
			}
		}
	}
	return out
}

// listedUnreadable checks the single system image across a parent and its
// children: a read of a node that answers "no node" although its session's
// previous children read of the parent listed the node shows a listing
// ahead of the store — unless a delete of the node may have landed in
// between: one that started before the read ended, did not definitely
// fail, and was not answered before the listing started (a node listed
// after that is a later create's). A node that vanishes without a recorded
// delete (an ephemeral whose session ended) must not be read this way.
// Each such read yields one "listed-unreadable" violation. Check runs it.
func listedUnreadable(h *History) []Violation {
	type deletion struct {
		start, end sim.Time
		acked      bool
	}
	deletes := map[string][]deletion{}
	for _, e := range h.Events {
		if e.Err != "" && e.Definite {
			continue
		}
		switch e.Kind {
		case KindWrite:
			if e.Op == "delete" {
				deletes[e.Path] = append(deletes[e.Path], deletion{e.Start, e.End, e.Err == ""})
			}
		case KindMulti:
			for _, op := range e.Ops {
				if op.Op == "delete" {
					deletes[op.Path] = append(deletes[op.Path], deletion{e.Start, e.End, e.Err == ""})
				}
			}
		}
	}
	type listing struct {
		start sim.Time
		kids  []string
	}
	listed := map[spKey]listing{} // a session's last children read of a parent
	noNode := core.ErrNoNode.Error()
	var out []Violation
	for _, e := range h.Events {
		switch {
		case (e.Kind == KindRead || e.Kind == KindWatchArm) && e.Op == "children" && e.Err == "":
			listed[spKey{e.Session, e.Path}] = listing{e.Start, e.Children}
		case e.Kind == KindRead && e.Op == "get" && e.Err == noNode:
			l, ok := listed[spKey{e.Session, znode.Parent(e.Path)}]
			if !ok || !slices.Contains(l.kids, znode.Base(e.Path)) {
				continue
			}
			if slices.ContainsFunc(deletes[e.Path], func(d deletion) bool {
				return d.start < e.End && !(d.acked && d.end < l.start)
			}) {
				continue
			}
			out = append(out, Violation{
				Invariant: "listed-unreadable", Session: e.Session, Path: e.Path,
				Detail: fmt.Sprintf("read at %v found no node, though the children read at %v listed it and no delete may have landed since",
					e.Start, l.start),
			})
		}
	}
	return out
}

// swapCounter parses the trailing "#k" counter of a swap-pair value.
func swapCounter(v string) (int64, bool) {
	i := strings.LastIndexByte(v, '#')
	if i < 0 {
		return 0, false
	}
	n, err := strconv.ParseInt(v[i+1:], 10, 64)
	return n, err == nil
}

func keysOf(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

package histcheck

// Self-tests for the history checker: hand-crafted known-bad histories it
// must flag, and a known-good history it must pass. A checker that cannot
// see a planted bug proves nothing about the runs it blesses.

import (
	"strings"
	"testing"
	"time"

	"faaskeeper/internal/core"
	"faaskeeper/internal/sim"
)

func sec(n int64) sim.Time { return sim.Time(n) * time.Second }

func hasViolation(vs []Violation, invariant string) bool {
	for _, v := range vs {
		if v.Invariant == invariant {
			return true
		}
	}
	return false
}

func checkH(events ...Event) []Violation {
	return Check(&History{Events: events}, CheckOpts{
		OpenSessions: map[string]bool{"w": true},
	})
}

func TestCheckerCleanHistoryPasses(t *testing.T) {
	vs := checkH(
		Event{Session: "s", Kind: KindWrite, Op: "create", Path: "/x", Value: "v#0", End: 1},
		Event{Session: "s", Kind: KindWrite, Op: "set", Path: "/x", Value: "v#1", Mzxid: 10, End: 2},
		Event{Session: "s", Kind: KindRead, Op: "get", Path: "/x", Value: "v#1", Mzxid: 10, End: 3},
		Event{Session: "s", Kind: KindWrite, Op: "set", Path: "/x", Value: "v#2", Mzxid: 14, End: 4},
		Event{Session: "r", Kind: KindRead, Op: "get", Path: "/x", Value: "v#2", Mzxid: 14, End: 5},
	)
	if len(vs) != 0 {
		t.Fatalf("clean history flagged: %v", vs)
	}
}

func TestCheckerFlagsTornMulti(t *testing.T) {
	// The multi set a=b=2 atomically, but a reader saw b at 2 while a was
	// still at 1 afterwards: a torn commit.
	vs := checkH(
		Event{Session: "w", Kind: KindMulti, Op: "multi", Path: "/swp/a", End: 1, Ops: []SubOp{
			{Op: "set", Path: "/swp/a", Value: "sw#1", Code: "ok", Txid: 10},
			{Op: "set", Path: "/swp/b", Value: "sw#1", Code: "ok", Txid: 10},
		}},
		Event{Session: "w", Kind: KindMulti, Op: "multi", Path: "/swp/a", End: 2, Ops: []SubOp{
			{Op: "set", Path: "/swp/a", Value: "sw#2", Code: "ok", Txid: 18},
			{Op: "set", Path: "/swp/b", Value: "sw#2", Code: "ok", Txid: 18},
		}},
		Event{Session: "r", Kind: KindRead, Op: "get", Path: "/swp/b", Value: "sw#2", Mzxid: 18, End: 3},
		Event{Session: "r", Kind: KindRead, Op: "get", Path: "/swp/a", Value: "sw#1", Mzxid: 10, End: 4},
	)
	if !hasViolation(vs, "multi-atomicity") {
		t.Fatalf("torn multi not flagged: %v", vs)
	}
}

func TestCheckerFlagsRolledBackMultiVisible(t *testing.T) {
	// A definite rollback's value must never become readable.
	vs := checkH(
		Event{Session: "w", Kind: KindMulti, Op: "multi", Path: "/swp/a", End: 1,
			Err: "faaskeeper: transaction aborted", Definite: true, Ops: []SubOp{
				{Op: "set", Path: "/swp/a", Value: "sw#9", Code: "txn_aborted"},
				{Op: "set", Path: "/swp/b", Value: "sw#9", Code: "bad_version"},
			}},
		Event{Session: "r", Kind: KindRead, Op: "get", Path: "/swp/a", Value: "sw#9", Mzxid: 30, End: 2},
	)
	if !hasViolation(vs, "failed-write-visible") {
		t.Fatalf("rolled-back multi value visible but not flagged: %v", vs)
	}
}

func TestCheckerFlagsMzxidRegression(t *testing.T) {
	vs := checkH(
		Event{Session: "s", Kind: KindRead, Op: "get", Path: "/x", Value: "", Mzxid: 20, End: 1},
		Event{Session: "s", Kind: KindRead, Op: "get", Path: "/x", Value: "", Mzxid: 12, End: 2},
	)
	if !hasViolation(vs, "mzxid-regression") {
		t.Fatalf("mzxid regression not flagged: %v", vs)
	}
}

func TestCheckerFlagsWriteAckReordering(t *testing.T) {
	vs := checkH(
		Event{Session: "s", Kind: KindWrite, Op: "set", Path: "/x", Value: "a#1", Mzxid: 9, End: 1},
		Event{Session: "s", Kind: KindWrite, Op: "set", Path: "/x", Value: "a#2", Mzxid: 7, End: 2},
	)
	if !hasViolation(vs, "write-txid-order") {
		t.Fatalf("write ack reordering not flagged: %v", vs)
	}
}

// TestCheckerWriteOrderIsPerShard: Z2 orders one session's acks per
// minting shard (txid mod Shards), across paths. Acks on /a then /b with
// txids 9 then 7 break it on one shard, and on two shards, where shard 1
// minted both; 9 then 8 come from different shards there and do not. A
// multi()'s ops share one txid, checked once.
func TestCheckerWriteOrderIsPerShard(t *testing.T) {
	a9 := Event{Session: "s", Kind: KindWrite, Op: "set", Path: "/a", Value: "a#1", Mzxid: 9, End: 1}
	b := func(txid int64) Event {
		return Event{Session: "s", Kind: KindWrite, Op: "set", Path: "/b", Value: "b#1", Mzxid: txid, End: 2}
	}
	check := func(shards int, events ...Event) []Violation {
		return Check(&History{Events: events}, CheckOpts{Shards: shards})
	}
	if vs := check(1, a9, b(7)); !hasViolation(vs, "write-txid-order") {
		t.Errorf("one shard: acks 9 on /a then 7 on /b not flagged: %v", vs)
	}
	if vs := check(2, a9, b(7)); !hasViolation(vs, "write-txid-order") {
		t.Errorf("two shards: acks 9 then 7, both minted by shard 1, not flagged: %v", vs)
	}
	if vs := check(2, a9, b(8)); len(vs) != 0 {
		t.Errorf("two shards: txids 9 and 8 of different shards flagged: %v", vs)
	}
	multi := Event{Session: "s", Kind: KindMulti, Op: "multi", Path: "/swp/a", End: 3, Ops: []SubOp{
		{Op: "set", Path: "/swp/a", Value: "sw#1", Code: "ok", Txid: 12},
		{Op: "set", Path: "/swp/b", Value: "sw#1", Code: "ok", Txid: 12},
	}}
	if vs := check(1, a9, multi); len(vs) != 0 {
		t.Errorf("a multi()'s ops sharing one txid flagged: %v", vs)
	}
}

func TestCheckerFlagsReadYourWritesBreak(t *testing.T) {
	vs := checkH(
		Event{Session: "p0", Kind: KindWrite, Op: "set", Path: "/p-p0", Value: "p0#1", Mzxid: 5, End: 1},
		Event{Session: "p0", Kind: KindWrite, Op: "set", Path: "/p-p0", Value: "p0#2", Mzxid: 8, End: 2},
		Event{Session: "p0", Kind: KindRead, Op: "get", Path: "/p-p0", Value: "p0#1", Mzxid: 5, End: 3},
	)
	if !hasViolation(vs, "read-your-writes") {
		t.Fatalf("stale own-write read not flagged: %v", vs)
	}
}

func TestCheckerAllowsIndeterminateWrite(t *testing.T) {
	// A timed-out write may or may not have landed: reading either the old
	// or the new value is legal.
	base := []Event{
		{Session: "p0", Kind: KindWrite, Op: "set", Path: "/p-p0", Value: "p0#1", Mzxid: 5, End: 1},
		{Session: "p0", Kind: KindWrite, Op: "set", Path: "/p-p0", Value: "p0#2",
			Err: "fkclient: request timed out", End: 2},
	}
	for _, v := range []string{"p0#1", "p0#2"} {
		vs := checkH(append(base,
			Event{Session: "p0", Kind: KindRead, Op: "get", Path: "/p-p0", Value: v, Mzxid: 5, End: 3})...)
		if hasViolation(vs, "read-your-writes") || hasViolation(vs, "phantom-value") {
			t.Fatalf("legal read %q after indeterminate write flagged: %v", v, vs)
		}
	}
}

func TestCheckerFlagsPhantomValue(t *testing.T) {
	vs := checkH(
		Event{Session: "s", Kind: KindWrite, Op: "set", Path: "/x", Value: "v#1", Mzxid: 3, End: 1},
		Event{Session: "r", Kind: KindRead, Op: "get", Path: "/x", Value: "ghost", Mzxid: 4, End: 2},
	)
	if !hasViolation(vs, "phantom-value") {
		t.Fatalf("phantom value not flagged: %v", vs)
	}
}

func TestCheckerFlagsSameMzxidDifferentData(t *testing.T) {
	vs := checkH(
		Event{Session: "a", Kind: KindRead, Op: "get", Path: "/x", Value: "v1", Mzxid: 11, End: 1},
		Event{Session: "b", Kind: KindRead, Op: "get", Path: "/x", Value: "v2", Mzxid: 11, End: 2},
	)
	if !hasViolation(vs, "same-mzxid-different-data") {
		t.Fatalf("diverging data at one mzxid not flagged: %v", vs)
	}
	if !hasViolation(vs, "phantom-value") {
		// Both values also lack any producing write; sanity-check the
		// provenance pass sees through reads.
		t.Fatalf("expected phantom-value too: %v", vs)
	}
}

func TestCheckerFlagsStaleReadBeforeWatchDelivery(t *testing.T) {
	// The watch for txid 20 fired at End=9, but the owner read state from
	// txid 25 at End=5 — newer state visible before its notification.
	vs := checkH(
		Event{Session: "w", Kind: KindWatchArm, Path: "/x", Mzxid: 10, WatchID: 77, End: 2},
		Event{Session: "w", Kind: KindRead, Op: "get", Path: "/x", Value: "", Mzxid: 25, End: 5},
		Event{Session: "w", Kind: KindWatchFire, Path: "/x", Mzxid: 20, WatchID: 77, End: 9},
	)
	if !hasViolation(vs, "watch-stale-read") {
		t.Fatalf("stale read before watch delivery not flagged: %v", vs)
	}
	// Armed before the firing write at txid 20 was acked, the owner read
	// /x at txid 20 itself before the notification: the value's stamp
	// held the read until it (Z4).
	vs = checkH(
		Event{Session: "w", Kind: KindWatchArm, Path: "/x", Mzxid: 10, WatchID: 77, End: 2},
		Event{Session: "x", Kind: KindWrite, Op: "set", Path: "/x", Value: "v", Mzxid: 20, Start: 3, End: 5},
		Event{Session: "w", Kind: KindRead, Op: "get", Path: "/x", Value: "v", Mzxid: 20, Start: 6, End: 7},
		Event{Session: "w", Kind: KindWatchFire, Path: "/x", Mzxid: 20, WatchID: 77, End: 9},
	)
	if !hasViolation(vs, "watch-stale-read") {
		t.Fatalf("read of the watched path at the firing txid before the notification, not flagged: %v", vs)
	}
}

func TestCheckerFlagsLostWatch(t *testing.T) {
	// Armed at mzxid 10, then two distinct newer states observed long
	// after, never a fire, session still open: the watch was dropped.
	vs := checkH(
		Event{Session: "w", Kind: KindWatchArm, Path: "/x", Mzxid: 10, WatchID: 77, End: sec(1)},
		Event{Session: "w", Kind: KindRead, Op: "get", Path: "/x", Value: "", Mzxid: 14, End: sec(10)},
		Event{Session: "w", Kind: KindRead, Op: "get", Path: "/x", Value: "", Mzxid: 19, End: sec(20)},
	)
	if !hasViolation(vs, "lost-watch") {
		t.Fatalf("lost watch not flagged: %v", vs)
	}
}

func TestCheckerLostWatchNeedsDistantEvidence(t *testing.T) {
	// The same observations within the in-flight window prove nothing: a
	// write already in the pipeline may legally miss a racing arm.
	vs := checkH(
		Event{Session: "w", Kind: KindWatchArm, Path: "/x", Mzxid: 10, WatchID: 77, End: sec(1)},
		Event{Session: "w", Kind: KindRead, Op: "get", Path: "/x", Value: "", Mzxid: 14, End: sec(1) + 1},
		Event{Session: "w", Kind: KindRead, Op: "get", Path: "/x", Value: "", Mzxid: 19, End: sec(1) + 2},
	)
	if hasViolation(vs, "lost-watch") {
		t.Fatalf("in-flight race misflagged as lost watch: %v", vs)
	}
	// And a delivered fire clears the arm entirely.
	vs = checkH(
		Event{Session: "w", Kind: KindWatchArm, Path: "/x", Mzxid: 10, WatchID: 77, End: sec(1)},
		Event{Session: "w", Kind: KindWatchFire, Path: "/x", Mzxid: 14, WatchID: 77, End: sec(2)},
		Event{Session: "w", Kind: KindRead, Op: "get", Path: "/x", Value: "", Mzxid: 14, End: sec(10)},
		Event{Session: "w", Kind: KindRead, Op: "get", Path: "/x", Value: "", Mzxid: 19, End: sec(20)},
	)
	if hasViolation(vs, "lost-watch") {
		t.Fatalf("fired watch misflagged as lost: %v", vs)
	}
}

// TestCheckerFlagsLostChildWatch: a child watch on the root is judged by
// child sets, never by txids (a sharded root's children come from several
// shards, whose txids do not order). Armed on [a], the owner reads [a b]
// past the gap and the watch never fired: lost. The same read within the
// gap, an unchanged set, or a fire each clear it.
func TestCheckerFlagsLostChildWatch(t *testing.T) {
	arm := Event{Session: "w", Kind: KindWatchArm, Op: "children", Path: "/", Children: []string{"a"}, WatchID: 5, End: sec(1)}
	read := func(end sim.Time, kids ...string) Event {
		return Event{Session: "w", Kind: KindRead, Op: "children", Path: "/", Children: kids, End: end}
	}
	if vs := checkH(arm, read(sec(10), "a", "b")); !hasViolation(vs, "lost-watch") {
		t.Fatalf("lost child watch not flagged: %v", vs)
	}
	for name, events := range map[string][]Event{
		"within the gap": {arm, read(sec(2), "a", "b")},
		"same set":       {arm, read(sec(10), "a"), read(sec(20), "a")},
		"fired":          {arm, {Session: "w", Kind: KindWatchFire, Path: "/", Mzxid: 3, WatchID: 5, End: sec(2)}, read(sec(10), "a", "b")},
	} {
		if vs := checkH(events...); len(vs) != 0 {
			t.Errorf("%s: flagged %v", name, vs)
		}
	}
}

func TestCheckerFlagsWatchFiredLate(t *testing.T) {
	// Armed by a read at mzxid 10; sets were acked at 14 and 18, but the
	// one fire carries 18: the watch missed 14.
	arm := Event{Session: "w", Kind: KindWatchArm, Path: "/x", Mzxid: 10, WatchID: 77, End: 2}
	set14 := Event{Session: "s", Kind: KindWrite, Op: "set", Path: "/x", Value: "v#1", Mzxid: 14, End: 3}
	set18 := Event{Session: "s", Kind: KindWrite, Op: "set", Path: "/x", Value: "v#2", Mzxid: 18, End: 4}
	fire := func(t int64) Event {
		return Event{Session: "w", Kind: KindWatchFire, Path: "/x", Mzxid: t, WatchID: 77, End: 5}
	}
	vs := WatchFiredLate(&History{Events: []Event{arm, set14, set18, fire(18)}})
	if len(vs) != 1 || vs[0].Invariant != "watch-fired-late" || !strings.Contains(vs[0].Detail, "missing acked set 14") {
		t.Fatalf("late fire: got %v, want one watch-fired-late naming set 14", vs)
	}
	if vs := checkH(arm, set14, set18, fire(18)); !hasViolation(vs, "watch-fired-late") {
		t.Fatalf("Check does not carry the late-fire rule: %v", vs)
	}

	// Clean: the fire announces the first acked set after the arm.
	if vs := WatchFiredLate(&History{Events: []Event{arm, set14, set18, fire(14)}}); len(vs) != 0 {
		t.Fatalf("fire on the first change flagged: %v", vs)
	}

	// Indeterminate: the set at 14 timed out, so nothing says it landed
	// before 18; only an acked set counts as missed.
	timedOut := Event{Session: "s", Kind: KindWrite, Op: "set", Path: "/x", Value: "v#1",
		Err: "fkclient: request timed out", End: 3}
	if vs := WatchFiredLate(&History{Events: []Event{arm, timedOut, set18, fire(18)}}); len(vs) != 0 {
		t.Fatalf("fire after an indeterminate set flagged: %v", vs)
	}
}

// TestCheckerFlagsUntimelyRead: a set answered at 1s; a read starting more
// than Timeliness later must return it or a newer value. One starting within
// the bound may still return the old value, one starting past it may not.
func TestCheckerFlagsUntimelyRead(t *testing.T) {
	set := Event{Session: "w", Kind: KindWrite, Op: "set", Path: "/x", Value: "v#2", Mzxid: 20, Start: sec(1) - 1, End: sec(1)}
	at := func(start sim.Time, value string, mzxid int64) Event {
		return Event{Session: "r", Kind: KindRead, Op: "get", Path: "/x", Value: value, Mzxid: mzxid, Start: start, End: start + 1}
	}
	base := []Event{
		{Session: "w", Kind: KindWrite, Op: "create", Path: "/x", Value: "v#1", End: 1},
		{Session: "w", Kind: KindWrite, Op: "set", Path: "/x", Value: "v#1", Mzxid: 10, End: 2},
		set,
	}
	if vs := checkH(append(base, at(sec(1)+Timeliness, "v#1", 10))...); hasViolation(vs, "timeliness") {
		t.Errorf("a read within the bound flagged: %v", vs)
	}
	if vs := checkH(append(base, at(sec(1)+Timeliness+1, "v#2", 20))...); len(vs) != 0 {
		t.Errorf("a fresh read flagged: %v", vs)
	}
	vs := checkH(append(base, at(sec(1)+Timeliness+1, "v#1", 10))...)
	if !hasViolation(vs, "timeliness") {
		t.Fatalf("a read past the bound returned the old value unflagged: %v", vs)
	}
	if !strings.Contains(vs[0].Detail, "missing txid 20") {
		t.Errorf("detail %q does not name the missed write", vs[0].Detail)
	}
}

// TestCheckerFlagsListedUnreadable: a session lists the root with t1 in it
// and then reads /t1: "no node" is a listing ahead of the store, unless a
// delete of /t1 may have landed between the listing and the read. A
// definitely failed delete, or one answered before the listing started,
// cannot have; one in flight across the listing, or with an unknown
// outcome, may have. A listing without t1, or another session's, proves
// nothing.
func TestCheckerFlagsListedUnreadable(t *testing.T) {
	create := Event{Session: "c", Kind: KindWrite, Op: "create", Path: "/t1", Value: "v#0", Start: sec(1), End: sec(2)}
	list := func(session string, kids ...string) Event {
		return Event{Session: session, Kind: KindWatchArm, Op: "children", Path: "/", Children: kids, WatchID: 5, Start: sec(3), End: sec(4)}
	}
	gone := Event{Session: "w", Kind: KindRead, Op: "get", Path: "/t1", Err: core.ErrNoNode.Error(), Definite: true, Start: sec(5), End: sec(6)}
	del := func(start, end sim.Time, err string, definite bool) Event {
		return Event{Session: "d", Kind: KindWrite, Op: "delete", Path: "/t1", Start: start, End: end, Err: err, Definite: definite}
	}
	for name, events := range map[string][]Event{
		"no delete":             {create, list("w", "t1"), gone},
		"delete failed":         {create, del(sec(3), sec(4), core.ErrNoNode.Error(), true), list("w", "t1"), gone},
		"delete answered first": {create, del(sec(2), sec(2)+1, "", false), list("w", "t1"), gone},
	} {
		if vs := checkH(events...); !hasViolation(vs, "listed-unreadable") {
			t.Errorf("%s: not flagged: %v", name, vs)
		}
	}
	for name, events := range map[string][]Event{
		"delete across the listing": {create, list("w", "t1"), del(sec(3), sec(5), "", false), gone},
		"delete unknown":            {create, del(sec(2), sec(2)+1, "fkclient: request timed out", false), list("w", "t1"), gone},
		"multi delete":              {create, list("w", "t1"), {Session: "d", Kind: KindMulti, Op: "multi", Path: "/t1", Start: sec(4), End: sec(5), Ops: []SubOp{{Op: "delete", Path: "/t1", Code: "ok", Txid: 9}}}, gone},
		"not listed":                {create, list("w"), gone},
		"another session's listing": {create, list("r", "t1"), gone},
	} {
		if vs := checkH(events...); hasViolation(vs, "listed-unreadable") {
			t.Errorf("%s: flagged %v", name, vs)
		}
	}
}

// TestCheckerFlagsNotificationOutOfOrder: a session gets one shard's
// notifications in txid order; two shards' interleave freely.
func TestCheckerFlagsNotificationOutOfOrder(t *testing.T) {
	events := []Event{
		{Session: "w", Kind: KindWatchArm, Path: "/a", Mzxid: 2, WatchID: 1, End: 1},
		{Session: "w", Kind: KindWatchArm, Path: "/b", Mzxid: 3, WatchID: 2, End: 2},
		{Session: "w", Kind: KindWatchFire, Path: "/b", Mzxid: 21, WatchID: 2, End: 8},
		{Session: "w", Kind: KindWatchFire, Path: "/a", Mzxid: 17, WatchID: 1, End: 9},
	}
	if vs := Check(&History{Events: events}, CheckOpts{}); !hasViolation(vs, "notification-order") {
		t.Errorf("txid 17 notified after txid 21 of the same shard, not flagged: %v", vs)
	}
	events[3].Mzxid = 18 // minted by the other of two shards
	if vs := Check(&History{Events: events}, CheckOpts{Shards: 2}); hasViolation(vs, "notification-order") {
		t.Errorf("two shards' notifications interleaved, flagged: %v", vs)
	}
}

// TestCheckerFlagsCrossPathReadBeforeWatchDelivery: a session armed on /a
// before the write that fires it was acked reads /b at or past that write's
// txid, on the same shard, before /a's notification: its own watch's
// delivery was in flight, so the read must have waited (Z4). A read of a
// path another shard minted is not held.
func TestCheckerFlagsCrossPathReadBeforeWatchDelivery(t *testing.T) {
	events := []Event{
		{Session: "w", Kind: KindWatchArm, Path: "/a", Mzxid: 4, WatchID: 1, End: 2},
		{Session: "x", Kind: KindWrite, Op: "set", Path: "/a", Value: "a1", Mzxid: 20, Start: 3, End: 5},
		{Session: "x", Kind: KindWrite, Op: "set", Path: "/b", Value: "b1", Mzxid: 22, Start: 5, End: 6},
		{Session: "w", Kind: KindRead, Op: "get", Path: "/b", Value: "b1", Mzxid: 22, Start: 6, End: 7},
		{Session: "w", Kind: KindWatchFire, Path: "/a", Mzxid: 20, WatchID: 1, End: 9},
	}
	if vs := Check(&History{Events: events}, CheckOpts{}); !hasViolation(vs, "watch-stale-read") {
		t.Errorf("read /b at 22 before the notification of /a's txid 20, not flagged: %v", vs)
	}
	events[2].Mzxid, events[3].Mzxid = 23, 23 // the other of two shards
	if vs := Check(&History{Events: events}, CheckOpts{Shards: 2}); hasViolation(vs, "watch-stale-read") {
		t.Errorf("read of another shard's path flagged: %v", vs)
	}
	events[0].End = 5 // armed no sooner than the ack: the clause does not apply
	events[2].Mzxid, events[3].Mzxid = 22, 22
	if vs := Check(&History{Events: events}, CheckOpts{}); hasViolation(vs, "watch-stale-read") {
		t.Errorf("a watch armed as the firing write was acked, flagged: %v", vs)
	}
}

// TestCheckerAtomicMultiBindsEveryOp: on a store that applies a multi()'s
// writes at one instant, a reader that saw any op of it sees every other op
// at or past its txid, in either order; on object storage only the earlier
// ops are bound (TestMultiOrderIsOneWay).
func TestCheckerAtomicMultiBindsEveryOp(t *testing.T) {
	multi := func(value string, txid int64) Event {
		return Event{Session: "w", Kind: KindMulti, Op: "multi", Path: "/a", End: sim.Time(txid), Ops: []SubOp{
			{Op: "set", Path: "/a", Value: value, Code: "ok", Txid: txid},
			{Op: "set", Path: "/b", Value: value, Code: "ok", Txid: txid},
		}}
	}
	read := func(path, value string, mzxid int64) Event {
		return Event{Session: "r", Kind: KindRead, Op: "get", Path: path, Value: value, Mzxid: mzxid, End: sim.Time(30 + mzxid)}
	}
	h := &History{Events: []Event{multi("v1", 10), multi("v2", 18), read("/a", "v2", 18), read("/b", "v1", 10)}}
	if vs := Check(h, CheckOpts{AtomicMulti: true}); !hasViolation(vs, "multi-atomicity") {
		t.Errorf("the first op seen at 18, then the second at 10 on an atomic store, not flagged: %v", vs)
	}
	if vs := Check(h, CheckOpts{}); len(vs) != 0 {
		t.Errorf("the same reads on an in-order store flagged: %v", vs)
	}
}

// TestCheckerNotificationBoundsLaterReads: a notification raises the
// session's bound on its path for the reads that start after it; a read
// already in flight may still return the value from before.
func TestCheckerNotificationBoundsLaterReads(t *testing.T) {
	events := []Event{
		{Session: "x", Kind: KindWrite, Op: "set", Path: "/a", Value: "a0", Mzxid: 10, End: 1},
		{Session: "w", Kind: KindWatchArm, Path: "/a", Mzxid: 10, WatchID: 1, End: 1},
		{Session: "x", Kind: KindWrite, Op: "set", Path: "/a", Value: "a1", Mzxid: 20, Start: 2, End: 3},
		{Session: "w", Kind: KindWatchFire, Path: "/a", Mzxid: 20, WatchID: 1, End: 5},
		{Session: "w", Kind: KindRead, Op: "get", Path: "/a", Value: "a0", Mzxid: 10, Start: 2, End: 6},
	}
	if vs := Check(&History{Events: events}, CheckOpts{}); len(vs) != 0 {
		t.Errorf("a read in flight across the notification flagged: %v", vs)
	}
	events[4].Start = 5
	if vs := Check(&History{Events: events}, CheckOpts{}); !hasViolation(vs, "mzxid-regression") {
		t.Errorf("a read started after the notification of txid 20 returned 10, not flagged: %v", vs)
	}
}

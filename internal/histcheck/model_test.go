package histcheck

// Self-tests for the clauses that replay each path's acked writes in txid
// order: hand-made histories in the shape fkclient's concurrent trace
// records (every write answered with its txid, every refusal definite), one
// planted fault each.

import (
	"testing"

	"faaskeeper/internal/core"
	"faaskeeper/internal/sim"
)

// ack is an acked single write at txid; a set carries its data version.
func ack(session, op, path, value string, txid int64, version int32) Event {
	return Event{Session: session, Kind: KindWrite, Op: op, Path: path, Value: value,
		Mzxid: txid, Version: version, Start: 1, End: sim.Time(txid + 1)}
}

// replayClean is a legal history of one path: created, set twice, deleted,
// re-created and set, across two sessions, one data watch firing for the
// first set, and a read of the last state.
func replayClean() []Event {
	return []Event{
		ack("a", "create", "/n", "a0", 1, 0),
		{Session: "w", Kind: KindWatchArm, Path: "/n", Mzxid: 1, WatchID: 7, End: 3},
		{Session: "b", Kind: KindWrite, Op: "create", Path: "/n", Value: "b0", Err: core.ErrNodeExists.Error(), Definite: true, End: 4},
		ack("a", "set", "/n", "a1", 4, 1),
		{Session: "w", Kind: KindWatchFire, Op: "set", Path: "/n", Mzxid: 4, WatchID: 7, End: 6},
		ack("b", "set", "/n", "b1", 6, 2),
		ack("a", "delete", "/n", "", 8, 0),
		ack("b", "create", "/n", "b2", 9, 0),
		ack("a", "set", "/n", "a3", 11, 1),
		{Session: "b", Kind: KindRead, Op: "get", Path: "/n", Value: "a3", Mzxid: 11, End: 13},
	}
}

func TestReplayCleanHistoryPasses(t *testing.T) {
	if vs := Check(&History{Events: replayClean()}, CheckOpts{}); len(vs) != 0 {
		t.Fatalf("legal replay flagged: %v", vs)
	}
}

// TestReplayFlagsEachPlantedFault: each rule fkclient's concurrent trace is
// held to, planted once in the clean history.
func TestReplayFlagsEachPlantedFault(t *testing.T) {
	for _, tc := range []struct {
		name, invariant string
		edit            func([]Event) []Event
	}{
		{"a session answered out of submission order", "write-txid-order", func(h []Event) []Event {
			// a's delete (txid 8) is answered before its set at txid 4.
			h[3], h[6] = h[6], h[3]
			return h
		}},
		{"one txid acknowledged twice", "duplicate-txid", func(h []Event) []Event {
			h[5].Mzxid = 4
			return h
		}},
		{"a create of a node that exists", "illegal-write", func(h []Event) []Event {
			return append(h, ack("c", "create", "/n", "c0", 12, 0))
		}},
		{"a set whose version skips one", "illegal-write", func(h []Event) []Event {
			h[5].Version = 3
			return h
		}},
		{"a set of a deleted node", "illegal-write", func(h []Event) []Event {
			h[7] = ack("b", "set", "/n", "b2", 9, 3)
			h[8].Version = 4
			return h
		}},
		{"a notification of a write to another path", "phantom-notification", func(h []Event) []Event {
			h[3].Path, h[3].Value = "/m", "m1"
			return h
		}},
		{"a notification of an unacked txid", "phantom-notification", func(h []Event) []Event {
			h[4].Mzxid = 5
			return h
		}},
		{"a notification of another kind of write", "phantom-notification", func(h []Event) []Event {
			h[4].Op = "delete"
			return h
		}},
		{"the one-shot watch fired twice", "phantom-notification", func(h []Event) []Event {
			return append(h, Event{Session: "w", Kind: KindWatchFire, Op: "set", Path: "/n", Mzxid: 6, WatchID: 7, End: 14})
		}},
		{"a read at an mzxid no acked write carries", "phantom-value", func(h []Event) []Event {
			h[9].Mzxid = 12
			return h
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			vs := Check(&History{Events: tc.edit(replayClean())}, CheckOpts{})
			if !hasViolation(vs, tc.invariant) {
				t.Fatalf("not flagged as %s: %v", tc.invariant, vs)
			}
		})
	}
}

// TestMultiOrderIsOneWay: a multi()'s ops are applied in order, so a reader
// that saw its later op's path must see its earlier op's path at or past
// the multi()'s txid; reading the earlier path first and then an older
// later path is the distribution window, not a torn commit. A multi()'s
// acked ops carry one txid.
func TestMultiOrderIsOneWay(t *testing.T) {
	multi := func(value string, txid int64) Event {
		return Event{Session: "w", Kind: KindMulti, Op: "multi", Path: "/a", End: sim.Time(txid), Ops: []SubOp{
			{Op: "set", Path: "/a", Value: value, Code: "ok", Txid: txid},
			{Op: "set", Path: "/b", Value: value, Code: "ok", Txid: txid},
		}}
	}
	read := func(path, value string, mzxid int64) Event {
		return Event{Session: "r", Kind: KindRead, Op: "get", Path: path, Value: value, Mzxid: mzxid, End: sim.Time(30 + mzxid)}
	}
	base := []Event{multi("v1", 10), multi("v2", 18)}
	if vs := Check(&History{Events: append(base, read("/a", "v2", 18), read("/b", "v1", 10))}, CheckOpts{}); len(vs) != 0 {
		t.Errorf("the earlier op's path read first flagged: %v", vs)
	}
	if vs := Check(&History{Events: append(base, read("/b", "v2", 18), read("/a", "v1", 10))}, CheckOpts{}); !hasViolation(vs, "multi-atomicity") {
		t.Errorf("the later op's path read first, then an older earlier path, not flagged: %v", vs)
	}
	torn := multi("v3", 22)
	torn.Ops[1].Txid = 23
	if vs := Check(&History{Events: append(base, torn)}, CheckOpts{}); !hasViolation(vs, "multi-atomicity") {
		t.Errorf("a multi() acked at two txids not flagged: %v", vs)
	}
}

// TestOwnWriteThenNoNode: a session whose create was acked reads "no node"
// only after a delete that may have landed since.
func TestOwnWriteThenNoNode(t *testing.T) {
	create := Event{Session: "s", Kind: KindWrite, Op: "create", Path: "/n", Value: "v", Start: 1, End: 2}
	gone := Event{Session: "s", Kind: KindRead, Op: "get", Path: "/n", Err: core.ErrNoNode.Error(), Definite: true, Start: 5, End: 6}
	if vs := Check(&History{Events: []Event{create, gone}}, CheckOpts{}); !hasViolation(vs, "read-your-writes") {
		t.Errorf("own create unreadable, no delete: not flagged: %v", vs)
	}
	del := Event{Session: "d", Kind: KindWrite, Op: "delete", Path: "/n", Start: 3, End: 4}
	if vs := Check(&History{Events: []Event{create, del, gone}}, CheckOpts{}); len(vs) != 0 {
		t.Errorf("own create deleted by another session flagged: %v", vs)
	}
}

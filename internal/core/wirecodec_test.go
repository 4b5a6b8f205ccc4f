package core

// Round-trip, never-panic, pinned-size and allocation-budget tests for
// the wire codecs. Every wire type must satisfy decode(encode(x)) == x up
// to nil vs empty slices (the decoder returns nil for an empty list), and
// no decoder may panic on arbitrary bytes.

import (
	"bytes"
	"reflect"
	"testing"

	"faaskeeper/internal/txn"
	"faaskeeper/internal/wire"
	"faaskeeper/internal/znode"
)

func testRequests() []Request {
	return []Request{
		{},
		{Session: "s-1", Seq: 7, Op: OpCreate, Path: "/a/b", Data: []byte("payload"), Version: -1, Flags: znode.FlagEphemeral},
		{Session: "s-2", Seq: -3, Op: OpSetData, Path: "/x", Data: bytes.Repeat([]byte{0xFF}, 300), Version: 12},
		{Session: "watch", Op: OpDeregister, Path: "/w", Data: nil},
	}
}

func testLeaderMsgs() []leaderMsg {
	return []leaderMsg{
		{},
		{
			Session: "s", Seq: 9, Op: OpCreate, Path: "/p/c", Shard: 3, Fanout: 2, DeregID: 44,
			NodeBlob: []byte{1, 2, 3}, ParentPath: "/p", ChildAdd: "c", ChildDel: "d",
			LockTs: 100, ParentLockTs: 101, Version: 5, Cversion: 6, EphOwner: "owner",
		},
		{Session: "neg", Seq: -1, Op: OpDelete, Path: "/z", Version: -1},
	}
}

func testTxnMsgs() []txnMsg {
	return []txnMsg{
		{},
		{
			ID: 88,
			Ops: []txn.ResolvedOp{
				{Type: txn.OpCreate, Path: "/t/a", ParentPath: "/t", Data: []byte("d"), Cversion: 2, EphOwner: "e", ChildAdd: "a", Shard: 1},
				{Type: txn.OpDelete, Path: "/t/b", ParentPath: "/t", Version: 3, ChildDel: "b", Shard: 2},
				{Type: txn.OpCheck, Path: "/t"},
			},
			ItemPaths: []string{"/t/a", "/t/b"},
			LockTs:    []int64{10, -20},
		},
	}
}

func testWatchPayloads() []watchPayload {
	return []watchPayload{
		{},
		{WatchID: 5, Event: EventDataChanged, Path: "/w", Txid: 99, Sessions: []string{"a", "b"}},
	}
}

// The norm* helpers map empty slices to nil, the decoder's canonical form.
// Request and leaderMsg trace ids are zeroed: the wire always carries one
// (re-minted from Session/Seq when unset), so a zero input decodes nonzero.
func normReq(r Request) Request {
	if len(r.Data) == 0 {
		r.Data = nil
	}
	r.traceID = 0
	return r
}

func normLM(m leaderMsg) leaderMsg {
	if len(m.NodeBlob) == 0 {
		m.NodeBlob = nil
	}
	m.traceID = 0
	return m
}

func normTM(m txnMsg) txnMsg {
	for i := range m.Ops {
		if len(m.Ops[i].Data) == 0 {
			m.Ops[i].Data = nil
		}
	}
	if len(m.Ops) == 0 {
		m.Ops = nil
	}
	if len(m.ItemPaths) == 0 {
		m.ItemPaths = nil
	}
	if len(m.LockTs) == 0 {
		m.LockTs = nil
	}
	return m
}

func normWP(p watchPayload) watchPayload {
	if len(p.Sessions) == 0 {
		p.Sessions = nil
	}
	return p
}

// roundTrip* encode x, decode the bytes, and return the decoded value.
func roundTripReq(t testing.TB, r Request) Request {
	t.Helper()
	e := wire.NewEncoder()
	defer e.Release()
	got, err := DecodeRequest(r.Encode(e))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	return got
}

func roundTripLM(t testing.TB, m leaderMsg) leaderMsg {
	t.Helper()
	e := wire.NewEncoder()
	defer e.Release()
	got, err := decodeLeaderMsg(m.encode(e))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	return got
}

// The Test*CodecEquivalence names predate the single codec (they compared
// gob against binary); they now check each codec against the identity.
func TestRequestCodecEquivalence(t *testing.T) {
	for _, r := range testRequests() {
		if got := roundTripReq(t, r); !reflect.DeepEqual(normReq(got), normReq(r)) {
			t.Errorf("round trip: %+v != %+v", got, r)
		}
	}
	// A set trace id travels verbatim; an unset one is re-minted.
	r := Request{Session: "s", Seq: 3, traceID: 77}
	if got := roundTripReq(t, r); got.traceID != 77 {
		t.Errorf("trace id %d, want 77", got.traceID)
	}
	r.traceID = 0
	if got := roundTripReq(t, r); got.traceID != r.trace() {
		t.Errorf("re-minted trace id %d, want %d", got.traceID, r.trace())
	}
}

func TestLeaderMsgCodecEquivalence(t *testing.T) {
	for _, m := range testLeaderMsgs() {
		if got := roundTripLM(t, m); !reflect.DeepEqual(normLM(got), normLM(m)) {
			t.Errorf("round trip: %+v != %+v", got, m)
		}
	}
}

func TestTxnMsgCodecEquivalence(t *testing.T) {
	for _, m := range append(testTxnMsgs(), txnMsg{ID: 1, traceID: 99}) {
		got, err := decodeTxnMsg(m.encode())
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if !reflect.DeepEqual(normTM(got), normTM(m)) {
			t.Errorf("round trip: %+v != %+v", got, m)
		}
	}
}

func TestWatchPayloadCodecEquivalence(t *testing.T) {
	for _, p := range testWatchPayloads() {
		got, err := decodeWatchPayload(p.encode())
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if !reflect.DeepEqual(normWP(got), normWP(p)) {
			t.Errorf("round trip: %+v != %+v", got, p)
		}
	}
}

func TestDecodeRejectsWrongTag(t *testing.T) {
	e := wire.NewEncoder()
	defer e.Release()
	b := Request{Session: "s"}.Encode(e)
	if _, err := decodeLeaderMsg(b); err == nil {
		t.Error("leaderMsg decode accepted a request blob")
	}
	if _, err := decodeTxnMsg(b); err == nil {
		t.Error("txnMsg decode accepted a request blob")
	}
	if _, err := decodeWatchPayload(b); err == nil {
		t.Error("watchPayload decode accepted a request blob")
	}
	if _, err := DecodeRequest(testWatchPayloads()[1].encode()); err == nil {
		t.Error("request decode accepted a watch payload blob")
	}
}

// TestWireSizesPinned pins len(encoded) of one fixture per message type.
// Queue latency and billed cost are functions of these sizes, so when the
// golden trace hash (fkclient.singleShardTraceSHA256) drifts, a failure
// here names the message whose size moved instead of an opaque SHA.
func TestWireSizesPinned(t *testing.T) {
	e1, e2 := wire.NewEncoder(), wire.NewEncoder()
	defer e1.Release()
	defer e2.Release()
	for _, c := range []struct {
		name      string
		got, want int
	}{
		{"Request", len(testRequests()[1].Encode(e1)), 38},
		{"leaderMsg", len(testLeaderMsgs()[1].encode(e2)), 51},
		{"watchPayload", len(testWatchPayloads()[1].encode()), 13},
		{"txnMsg", len(testTxnMsgs()[1].encode()), 84},
	} {
		if c.got != c.want {
			t.Errorf("%s encodes to %d B, pinned %d", c.name, c.got, c.want)
		}
	}
}

// Allocation budgets for the hot paths, locked so a regression that
// reintroduces per-message garbage fails loudly. The counts are ceilings,
// not exact (minor Go-version variance): a full encode+decode round trip
// of a request is at most 5 allocations (three decoded strings, the Op
// string, slice headers) and a leader message at most 8.
func TestBinaryAllocBudgets(t *testing.T) {
	req := testRequests()[1]
	lm := testLeaderMsgs()[1]
	if allocs := testing.AllocsPerRun(200, func() { roundTripReq(t, req) }); allocs > 5 {
		t.Errorf("request round trip: %.0f allocs, budget 5", allocs)
	}
	if allocs := testing.AllocsPerRun(200, func() { roundTripLM(t, lm) }); allocs > 8 {
		t.Errorf("leader msg round trip: %.0f allocs, budget 8", allocs)
	}
}

// neverPanics feeds arbitrary bytes to every decoder: each must return a
// value or an error, never panic — queue bodies are the one input the
// pipeline does not produce itself under fault injection.
func neverPanics(b []byte) {
	_, _ = DecodeRequest(b)
	_, _ = decodeLeaderMsg(b)
	_, _ = decodeTxnMsg(b)
	_, _ = decodeWatchPayload(b)
}

// FuzzRequestCodecs round-trips arbitrary field values and decodes the
// data field as arbitrary bytes. (The Fuzz*Codecs names predate the
// single codec; CI lists them.)
func FuzzRequestCodecs(f *testing.F) {
	f.Add("s", int64(1), "create", "/a", []byte("d"), int32(-1), byte(1))
	f.Add("", int64(0), "", "", []byte(nil), int32(0), byte(0))
	f.Add("", int64(0), "", "", []byte{tagRequest, 0xFF, 0xFF, 0xFF}, int32(0), byte(0))
	f.Fuzz(func(t *testing.T, session string, seq int64, op string, path string, data []byte, version int32, flags byte) {
		neverPanics(data)
		r := Request{Session: session, Seq: seq, Op: OpCode(op), Path: path, Data: data, Version: version, Flags: znode.Flags(flags)}
		if got := roundTripReq(t, r); !reflect.DeepEqual(normReq(got), normReq(r)) {
			t.Fatalf("round trip: %+v != %+v", got, r)
		}
	})
}

// FuzzLeaderMsgCodecs does the same for the leader pipeline message.
func FuzzLeaderMsgCodecs(f *testing.F) {
	f.Add("s", int64(2), "set_data", "/p", 1, 0, int64(3), []byte{9}, "/q", "a", "b", int64(4), int64(5), int32(6), int32(7), "o")
	f.Fuzz(func(t *testing.T, session string, seq int64, op string, path string, shard int, fanout int, deregID int64,
		blob []byte, parent string, childAdd string, childDel string, lockTs int64, parentLockTs int64,
		version int32, cversion int32, ephOwner string) {
		neverPanics(blob)
		m := leaderMsg{
			Session: session, Seq: seq, Op: OpCode(op), Path: path, Shard: shard, Fanout: fanout,
			DeregID: deregID, NodeBlob: blob, ParentPath: parent, ChildAdd: childAdd, ChildDel: childDel,
			LockTs: lockTs, ParentLockTs: parentLockTs, Version: version, Cversion: cversion, EphOwner: ephOwner,
		}
		if got := roundTripLM(t, m); !reflect.DeepEqual(normLM(got), normLM(m)) {
			t.Fatalf("round trip: %+v != %+v", got, m)
		}
	})
}

// FuzzWatchPayloadCodecs covers the watch invocation payload, including
// multi-element session lists.
func FuzzWatchPayloadCodecs(f *testing.F) {
	f.Add(int64(1), byte(2), "/w", int64(3), "a", "b")
	f.Fuzz(func(t *testing.T, wid int64, event byte, path string, txid int64, s1 string, s2 string) {
		neverPanics([]byte(path))
		p := watchPayload{WatchID: wid, Event: EventType(event), Path: path, Txid: txid, Sessions: []string{s1, s2}}
		got, err := decodeWatchPayload(p.encode())
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if !reflect.DeepEqual(got, p) {
			t.Fatalf("round trip: %+v != %+v", got, p)
		}
	})
}

// FuzzTxnMsgCodecs covers the transaction payload with one fuzzed
// resolved op plus list fields.
func FuzzTxnMsgCodecs(f *testing.F) {
	f.Add(int64(1), "create", "/t/a", "/t", []byte("d"), int32(1), int32(2), "e", "a", "", 3, "/t/a", int64(9))
	f.Fuzz(func(t *testing.T, id int64, opType string, path string, parent string, data []byte,
		version int32, cversion int32, ephOwner string, childAdd string, childDel string, shard int,
		itemPath string, lockTs int64) {
		neverPanics(data)
		m := txnMsg{
			ID: id,
			Ops: []txn.ResolvedOp{{
				Type: txn.OpType(opType), Path: path, ParentPath: parent, Data: data,
				Version: version, Cversion: cversion, EphOwner: ephOwner,
				ChildAdd: childAdd, ChildDel: childDel, Shard: shard,
			}},
			ItemPaths: []string{itemPath},
			LockTs:    []int64{lockTs},
			traceID:   id ^ lockTs,
		}
		got, err := decodeTxnMsg(m.encode())
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if !reflect.DeepEqual(normTM(got), normTM(m)) {
			t.Fatalf("round trip: %+v != %+v", got, m)
		}
	})
}

package core

// Round-trip, never-panic, pinned-size and allocation-budget tests for
// the wire codecs. Every wire type must satisfy decode(encode(x)) == x up
// to nil vs empty slices (the decoder returns nil for an empty list), and
// no decoder may panic on arbitrary bytes.

import (
	"bytes"
	"reflect"
	"slices"
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
			Session: "s", Seq: 9, Shard: 3, Fanout: 2, DeregID: 44,
			change: change{
				Op: OpCreate, Path: "/p/c", NodeBlob: []byte{1, 2, 3}, ParentPath: "/p", ChildAdd: "c", ChildDel: "d",
				Version: 5, Cversion: 6, EphOwner: "owner",
			},
			LockTs: 100, ParentLockTs: 101,
		},
		{Session: "neg", Seq: -1, change: change{Op: OpDelete, Path: "/z", Version: -1}},
	}
}

// testTxnMsgs are multi() leader messages: the transaction payload (sub-ops,
// ItemPaths, ItemLockTs) travels as leaderMsg fields when Op == OpMulti.
func testTxnMsgs() []leaderMsg {
	return []leaderMsg{
		{Session: "m", change: change{Op: OpMulti}},
		testMultiMsg(),
	}
}

// testMultiMsg is a multi() message as followerWrite builds it: a create, a
// delete and a check under /t, validated against stored states, with the
// lock of every item it touches.
func testMultiMsg() leaderMsg {
	t := sysNode{Exists: true, Cversion: 4, Children: []string{"b"}}
	b := sysNode{Exists: true, Version: 2}
	ops := []change{
		validatedChange(OpCreate, "/t/a", []byte("d"), "e", sysNode{}, t),
		validatedChange(OpDelete, "/t/b", nil, "", b, t),
		validatedChange(OpCode(txn.OpCheck), "/t", nil, "", t, sysNode{}),
	}
	return leaderMsg{
		Session: "s", Seq: 9, change: change{Op: OpMulti, Path: anchorPath(ops)},
		Ops: ops, ItemPaths: []string{"/t", "/t/a", "/t/b"}, ItemLockTs: []int64{10, -20, 30},
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
	m.change = normChange(m.change)
	m.Ops = slices.Clone(m.Ops)
	for i := range m.Ops {
		m.Ops[i] = normChange(m.Ops[i])
	}
	if len(m.Ops) == 0 {
		m.Ops = nil
	}
	if len(m.ItemPaths) == 0 {
		m.ItemPaths = nil
	}
	if len(m.ItemLockTs) == 0 {
		m.ItemLockTs = nil
	}
	m.traceID = 0
	return m
}

// normChange puts a follower-built change in its decoded form: the node
// image travels as its marshaled NodeBlob.
func normChange(c change) change {
	if c.image.Path != "" {
		c.NodeBlob, c.image = znode.Marshal(&c.image, nil), znode.Node{}
	}
	if len(c.NodeBlob) == 0 {
		c.NodeBlob = nil
	}
	return c
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

// The *RoundTripIdentity tests check decode(encode(x)) == x for each
// message type of the wire format.
func TestRequestRoundTripIdentity(t *testing.T) {
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

// A multi() message's payload travels only with Op == OpMulti: a single
// op's message encodes the same bytes whatever its payload fields hold.
func TestLeaderMsgRoundTripIdentity(t *testing.T) {
	for _, m := range testLeaderMsgs() {
		if got := roundTripLM(t, m); !reflect.DeepEqual(normLM(got), normLM(m)) {
			t.Errorf("round trip: %+v != %+v", got, m)
		}
	}
	single := testLeaderMsgs()[1]
	e1, e2 := wire.NewEncoder(), wire.NewEncoder()
	defer e1.Release()
	defer e2.Release()
	withOps := single
	withOps.Ops, withOps.ItemPaths, withOps.ItemLockTs = testMultiMsg().Ops, []string{"/p"}, []int64{1}
	if a, b := single.encode(e1), withOps.encode(e2); !bytes.Equal(a, b) {
		t.Errorf("a single op's message carries a multi() payload: %d B, %d B without", len(b), len(a))
	}
}

func TestTxnMsgRoundTripIdentity(t *testing.T) {
	for _, m := range testTxnMsgs() {
		if got := roundTripLM(t, m); !reflect.DeepEqual(normLM(got), normLM(m)) {
			t.Errorf("round trip: %+v != %+v", got, m)
		}
	}
	// The payload follows the trailing trace id, which a multi() keeps.
	m := testMultiMsg()
	m.traceID = 99
	if got := roundTripLM(t, m); got.traceID != 99 {
		t.Errorf("trace id %d, want 99", got.traceID)
	}
}

func TestWatchPayloadRoundTripIdentity(t *testing.T) {
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

// TestWatchPayloadEncodesAtItsSize: the payload the watch function keeps is
// encoded once, into a buffer of exactly its size — one allocation, where
// the pooled encoder it used to detach grew about four times — and its
// bytes are what the pooled encoder writes. Long strings and a large id
// take the multi-byte varint lengths.
func TestWatchPayloadEncodesAtItsSize(t *testing.T) {
	long := watchPayload{WatchID: 1 << 62, Event: EventChildrenChanged, Path: "/" + string(bytes.Repeat([]byte("p"), 300)),
		Txid: -1 << 40, Sessions: []string{string(bytes.Repeat([]byte("s"), 200)), "", "x"}}
	for _, p := range append(testWatchPayloads(), long) {
		b := p.encode()
		if len(b) != cap(b) {
			t.Errorf("%d bytes in a buffer of %d", len(b), cap(b))
		}
		e := wire.NewEncoder()
		e.Byte(tagWatch)
		e.Varint(p.WatchID)
		e.Byte(byte(p.Event))
		e.String(p.Path)
		e.Varint(p.Txid)
		e.Strings(p.Sessions)
		if !bytes.Equal(b, e.Data()) {
			t.Errorf("encode: %x, the pooled encoder writes %x", b, e.Data())
		}
		e.Release()
		if got := testing.AllocsPerRun(100, func() { _ = p.encode() }); got != 1 {
			t.Errorf("encode: %v allocations, want 1", got)
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
	e1, e2, e3 := wire.NewEncoder(), wire.NewEncoder(), wire.NewEncoder()
	defer e1.Release()
	defer e2.Release()
	defer e3.Release()
	for _, c := range []struct {
		name      string
		got, want int
	}{
		{"Request", len(testRequests()[1].Encode(e1)), 38},
		{"leaderMsg", len(testLeaderMsgs()[1].encode(e2)), 51},
		{"watchPayload", len(testWatchPayloads()[1].encode()), 13},
		// The same multi() encoded to 127 B as a leaderMsg nesting its
		// payload in NodeBlob: the blob's length prefix, tag and second
		// trace id went (−9 B), and the create carries its marshaled node
		// instead of its raw data, as a single create does (+16 B).
		{"leaderMsg multi", len(testMultiMsg().encode(e3)), 134},
	} {
		if c.got != c.want {
			t.Errorf("%s encodes to %d B, pinned %d", c.name, c.got, c.want)
		}
	}
}

// Allocation budgets for the hot paths, locked so a regression that
// reintroduces per-message garbage fails loudly. A full encode+decode
// round trip of a request or a single op's leader message allocates
// nothing: the encoder is pooled, every decoded string and byte field is a
// view into the encoded bytes, and an op code decodes to its constant.
func TestBinaryAllocBudgets(t *testing.T) {
	req := testRequests()[1]
	lm := testLeaderMsgs()[1]
	if allocs := testing.AllocsPerRun(200, func() { roundTripReq(t, req) }); allocs > 0 {
		t.Errorf("request round trip: %.0f allocs, budget 0", allocs)
	}
	if allocs := testing.AllocsPerRun(200, func() { roundTripLM(t, lm) }); allocs > 0 {
		t.Errorf("leader msg round trip: %.0f allocs, budget 0", allocs)
	}
}

// TestOpCodesDecodeToConstants: every op code a request or a change
// carries decodes to its constant, and an unknown one still decodes, to a
// view into the body. Neither allocates: the messages below have no field
// that would.
func TestOpCodesDecodeToConstants(t *testing.T) {
	encode := func(enc func(*wire.Encoder) []byte) []byte {
		e := wire.NewEncoder()
		defer e.Release()
		return bytes.Clone(enc(e))
	}
	for _, code := range append(opCodes, "bogus") {
		op := OpCode(code)
		req := encode(Request{Op: op}.Encode)
		lm := encode(leaderMsg{change: change{Op: op}}.encode)
		var gotReq, gotLM OpCode
		allocs := testing.AllocsPerRun(100, func() {
			r, err := DecodeRequest(req)
			m, err2 := decodeLeaderMsg(lm)
			if err != nil || err2 != nil {
				t.Fatalf("%s: %v, %v", op, err, err2)
			}
			gotReq, gotLM = r.Op, m.Op
		})
		if gotReq != op || gotLM != op || allocs != 0 {
			t.Errorf("%s decodes to request %q and change %q with %v allocations, want itself twice with 0", op, gotReq, gotLM, allocs)
		}
	}
}

// neverPanics feeds arbitrary bytes to every decoder: each must return a
// value or an error, never panic — queue bodies are the one input the
// pipeline does not produce itself under fault injection.
func neverPanics(b []byte) {
	_, _ = DecodeRequest(b)
	_, _ = decodeLeaderMsg(b)
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

// FuzzLeaderMsgCodecs does the same for a single op's leader pipeline
// message.
func FuzzLeaderMsgCodecs(f *testing.F) {
	f.Add("s", int64(2), "set_data", "/p", 1, 0, int64(3), []byte{9}, "/q", "a", "b", int64(4), int64(5), int32(6), int32(7), "o")
	f.Fuzz(func(t *testing.T, session string, seq int64, op string, path string, shard int, fanout int, deregID int64,
		blob []byte, parent string, childAdd string, childDel string, lockTs int64, parentLockTs int64,
		version int32, cversion int32, ephOwner string) {
		neverPanics(blob)
		if OpCode(op) == OpMulti {
			op = string(OpSetData)
		}
		m := leaderMsg{
			Session: session, Seq: seq, Shard: shard, Fanout: fanout, DeregID: deregID,
			change: change{
				Op: OpCode(op), Path: path, NodeBlob: blob, ParentPath: parent, ChildAdd: childAdd, ChildDel: childDel,
				Version: version, Cversion: cversion, EphOwner: ephOwner,
			},
			LockTs: lockTs, ParentLockTs: parentLockTs,
		}
		if got := roundTripLM(t, m); !reflect.DeepEqual(normLM(got), normLM(m)) {
			t.Fatalf("round trip: %+v != %+v", got, m)
		}
	})
}

// FuzzTxnMsgCodecs covers a multi()'s leader message: one fuzzed change as
// its sub-op plus one locked item.
func FuzzTxnMsgCodecs(f *testing.F) {
	f.Add(int64(1), "create", "/t/a", "/t", []byte("d"), int32(1), int32(2), "e", "a", "", "/t/a", int64(9))
	f.Fuzz(func(t *testing.T, trace int64, op string, path string, parent string, blob []byte,
		version int32, cversion int32, ephOwner string, childAdd string, childDel string,
		itemPath string, lockTs int64) {
		neverPanics(blob)
		m := leaderMsg{
			Session: "s", Seq: 1, change: change{Op: OpMulti, Path: path},
			Ops: []change{{
				Op: OpCode(op), Path: path, NodeBlob: blob, ParentPath: parent, ChildAdd: childAdd, ChildDel: childDel,
				Version: version, Cversion: cversion, EphOwner: ephOwner,
			}},
			ItemPaths:  []string{itemPath},
			ItemLockTs: []int64{lockTs},
			traceID:    trace,
		}
		got := roundTripLM(t, m)
		if !reflect.DeepEqual(normLM(got), normLM(m)) {
			t.Fatalf("round trip: %+v != %+v", got, m)
		}
		if trace != 0 && got.traceID != trace {
			t.Fatalf("trace id %d, want %d", got.traceID, trace)
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

package txn

import (
	"reflect"
	"testing"

	"faaskeeper/internal/wire"
	"faaskeeper/internal/znode"
)

func testOps() []Op {
	return []Op{
		Create("/t/a", []byte("data"), znode.FlagEphemeral),
		SetData("/t/b", nil, 7),
		Delete("/t/c", -1),
		Check("/t", 3),
	}
}

func testResolved() []ResolvedOp {
	return []ResolvedOp{
		{Type: OpCreate, Path: "/t/a0001", ParentPath: "/t", Data: []byte("d"), Cversion: 4, EphOwner: "sess", ChildAdd: "a0001"},
		{Type: OpSetData, Path: "/t/b", Data: nil, Version: 8},
		{Type: OpDelete, Path: "/t/c", ParentPath: "/t", Version: 2, ChildDel: "c"},
		{Type: OpCheck, Path: "/t"},
	}
}

func normOps(ops []Op) []Op {
	out := append([]Op(nil), ops...)
	for i := range out {
		if len(out[i].Data) == 0 {
			out[i].Data = nil
		}
	}
	return out
}

// roundTripResolved encodes a resolved-op list the way a leader message
// carries it and reads it back.
func roundTripResolved(ops []ResolvedOp) ([]ResolvedOp, error) {
	e := wire.NewEncoder()
	AppendResolvedOps(e, ops)
	return readResolved(e.Owned())
}

// readResolved decodes a count-prefixed resolved-op list.
func readResolved(b []byte) ([]ResolvedOp, error) {
	d := wire.NewDecoder(b)
	ops := ReadResolvedOps(&d)
	return ops, d.Err()
}

func normResolved(ops []ResolvedOp) []ResolvedOp {
	out := append([]ResolvedOp(nil), ops...)
	for i := range out {
		if len(out[i].Data) == 0 {
			out[i].Data = nil
		}
	}
	return out
}

// The *RoundTripIdentity tests check decode(encode(x)) == x, the empty and
// nil lists included.
func TestOpsRoundTripIdentity(t *testing.T) {
	for _, ops := range [][]Op{testOps(), {}, nil} {
		got, err := DecodeOps(EncodeOps(ops))
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if !reflect.DeepEqual(normOps(got), normOps(ops)) {
			t.Errorf("round trip:\n got %+v\nwant %+v", got, ops)
		}
	}
}

func TestResolvedRoundTripIdentity(t *testing.T) {
	for _, ops := range [][]ResolvedOp{testResolved(), nil} {
		got, err := roundTripResolved(ops)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if !reflect.DeepEqual(normResolved(got), normResolved(ops)) {
			t.Errorf("round trip:\n got %+v\nwant %+v", got, ops)
		}
	}
}

func TestOpsDecodeRejectsCorrupt(t *testing.T) {
	if _, err := DecodeOps([]byte{0xEE}); err == nil {
		t.Error("bad tag accepted")
	}
	// A truncated buffer must error, not return a partial list silently.
	full := EncodeOps(testOps())
	if _, err := DecodeOps(full[:len(full)/2]); err == nil {
		t.Error("truncated ops accepted")
	}
	e := wire.NewEncoder()
	AppendResolvedOps(e, testResolved())
	resolved := e.Owned()
	if _, err := readResolved(resolved[:len(resolved)/2]); err == nil {
		t.Error("truncated resolved ops accepted")
	}
}

// TestOpsBinaryAllocBudget locks the round trip's allocation ceiling: one
// detached encode buffer plus the decoded list and its strings.
func TestOpsBinaryAllocBudget(t *testing.T) {
	ops := testOps()
	if allocs := testing.AllocsPerRun(200, func() {
		if _, err := DecodeOps(EncodeOps(ops)); err != nil {
			t.Fatal(err)
		}
	}); allocs > 16 {
		t.Errorf("ops round trip: %.0f allocs, budget 16", allocs)
	}
}

// FuzzOpsCodecs round-trips one fuzzed op and decodes its data field as
// arbitrary bytes, which must error or succeed but never panic. (The
// Fuzz*Codecs names predate the single codec; CI lists them.)
func FuzzOpsCodecs(f *testing.F) {
	f.Add("create", "/a", []byte("d"), int32(-1), byte(1))
	f.Add("", "", []byte(nil), int32(0), byte(0))
	f.Add("", "", []byte{tagOps, 0xFF, 0xFF, 0x3F}, int32(0), byte(0))
	f.Fuzz(func(t *testing.T, opType string, path string, data []byte, version int32, flags byte) {
		_, _ = DecodeOps(data)
		ops := []Op{{Type: OpType(opType), Path: path, Data: data, Version: version, Flags: znode.Flags(flags)}}
		got, err := DecodeOps(EncodeOps(ops))
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if !reflect.DeepEqual(normOps(got), normOps(ops)) {
			t.Fatalf("round trip: %+v != %+v", got, ops)
		}
	})
}

// FuzzResolvedCodecs does the same for the resolved-op list a leader
// message carries (AppendResolvedOps / ReadResolvedOps).
func FuzzResolvedCodecs(f *testing.F) {
	f.Add("create", "/a", "/p", []byte("d"), int32(1), int32(2), "e", "a", "")
	f.Fuzz(func(t *testing.T, opType string, path string, parent string, data []byte,
		version int32, cversion int32, ephOwner string, childAdd string, childDel string) {
		_, _ = readResolved(data)
		ops := []ResolvedOp{{
			Type: OpType(opType), Path: path, ParentPath: parent, Data: data,
			Version: version, Cversion: cversion, EphOwner: ephOwner,
			ChildAdd: childAdd, ChildDel: childDel,
		}}
		got, err := roundTripResolved(ops)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if !reflect.DeepEqual(normResolved(got), normResolved(ops)) {
			t.Fatalf("round trip: %+v != %+v", got, ops)
		}
	})
}

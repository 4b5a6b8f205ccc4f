package txn

import (
	"reflect"
	"testing"

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

func normOps(ops []Op) []Op {
	out := append([]Op(nil), ops...)
	for i := range out {
		if len(out[i].Data) == 0 {
			out[i].Data = nil
		}
	}
	return out
}

// TestOpsRoundTripIdentity checks decode(encode(x)) == x, the empty and nil
// lists included.
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

func TestOpsDecodeRejectsCorrupt(t *testing.T) {
	if _, err := DecodeOps([]byte{0xEE}); err == nil {
		t.Error("bad tag accepted")
	}
	// A truncated buffer must error, not return a partial list silently.
	full := EncodeOps(testOps())
	if _, err := DecodeOps(full[:len(full)/2]); err == nil {
		t.Error("truncated ops accepted")
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

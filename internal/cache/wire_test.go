package cache

import (
	"reflect"
	"testing"
)

func TestInvalidationRoundTrip(t *testing.T) {
	for _, inv := range []Invalidation{
		{},
		{Path: "/a/b", Mzxid: 42, Epoch: []int64{1, -2, 3}},
		{Path: "/x", Mzxid: -1},
	} {
		got, err := DecodeInvalidation(EncodeInvalidation(inv))
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		want := inv
		if len(want.Epoch) == 0 {
			want.Epoch = nil
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("round trip: %+v != %+v", got, want)
		}
	}
	if _, err := DecodeInvalidation([]byte{0x00}); err == nil {
		t.Error("bad tag accepted")
	}
}

// TestBinaryInvSizeExact pins the arithmetic size model to the real
// encoding: the latency bill must be the bytes a real transport would
// move, computed without encoding.
func TestBinaryInvSizeExact(t *testing.T) {
	for _, inv := range []Invalidation{
		{},
		{Path: "/a", Mzxid: 1},
		{Path: "/deep/long/path/with/segments", Mzxid: 1 << 40, Epoch: []int64{5, 6, 7, 1 << 50}},
		{Path: "/neg", Mzxid: -9, Epoch: []int64{-1}},
	} {
		if got, want := invSize(inv), len(EncodeInvalidation(inv)); got != want {
			t.Errorf("invSize(%+v) = %d, encoded len %d", inv, got, want)
		}
	}
}

// FuzzInvalidationCodec round-trips fuzzed records and cross-checks the
// arithmetic size model against the real encoding.
func FuzzInvalidationCodec(f *testing.F) {
	f.Add("/a", int64(1), int64(2), int64(3))
	f.Add("", int64(0), int64(-1), int64(1)<<62)
	f.Fuzz(func(t *testing.T, path string, mzxid int64, e1 int64, e2 int64) {
		inv := Invalidation{Path: path, Mzxid: mzxid, Epoch: []int64{e1, e2}}
		b := EncodeInvalidation(inv)
		if got, want := invSize(inv), len(b); got != want {
			t.Fatalf("size model %d != encoded %d", got, want)
		}
		got, err := DecodeInvalidation(b)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if !reflect.DeepEqual(got, inv) {
			t.Fatalf("round trip: %+v != %+v", got, inv)
		}
	})
}

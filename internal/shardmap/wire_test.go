package shardmap

import (
	"bytes"
	"reflect"
	"testing"
)

func testMap() *Map {
	return &Map{
		Epoch:     9,
		Base:      2,
		Queues:    6,
		Overrides: map[int]int{0: 4, 3: 5},
		Splits:    []Split{{Prefix: "/hot", Shards: []int{4, 5}}, {Prefix: "/cold", Shards: []int{1}}},
		SeqBase:   map[int]int64{4: 100, 5: 200},
		Gens:      map[int]int64{0: 1, 4: 2},
		Mig: &Migration{
			Slots:    []int{1, 2},
			Prefixes: []string{"/hot/a", "/hot/b"},
			Sources:  []int{0, 0},
			Dests:    []int{4, 5},
		},
	}
}

// TestMapCodecEquivalence round-trips the map blob. (The name predates
// the single codec, when it compared gob against binary.)
func TestMapCodecEquivalence(t *testing.T) {
	for _, m := range []*Map{testMap(), {Epoch: 1, Base: 1, Queues: 1}} {
		got, err := decodeMap(encodeMap(m))
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		// The decoder nil-fills the lookup maps, so normalize the input
		// the same way before comparing.
		want := *m
		if want.Overrides == nil {
			want.Overrides = map[int]int{}
		}
		if want.SeqBase == nil {
			want.SeqBase = map[int]int64{}
		}
		if want.Gens == nil {
			want.Gens = map[int]int64{}
		}
		if !reflect.DeepEqual(got, &want) {
			t.Errorf("round trip:\n got %+v\nwant %+v", got, &want)
		}
	}
}

// TestMapBinaryDeterministic pins the sorted-key encoding: the blob
// participates in item-level conditional writes, so equal maps must
// encode to equal bytes regardless of map iteration order.
func TestMapBinaryDeterministic(t *testing.T) {
	ref := encodeMap(testMap())
	for i := 0; i < 32; i++ {
		m := testMap() // fresh maps each round: new iteration order
		if b := encodeMap(m); !bytes.Equal(b, ref) {
			t.Fatalf("encoding differs between runs:\n%x\n%x", ref, b)
		}
	}
}

func TestMapDecodeRejectsCorrupt(t *testing.T) {
	if _, err := decodeMap([]byte{0x00, 0x01}); err == nil {
		t.Error("bad tag accepted")
	}
	full := encodeMap(testMap())
	if _, err := decodeMap(full[:len(full)-3]); err == nil {
		t.Error("truncated map accepted")
	}
}

// FuzzMapCodecs round-trips fuzzed scalar and map fields and decodes the
// prefix as arbitrary bytes, which must error or succeed but never panic.
// (The name predates the single codec; CI lists it.)
func FuzzMapCodecs(f *testing.F) {
	f.Add(int64(1), 2, 4, 0, 5, "/hot", int64(7))
	f.Add(int64(0), 0, 0, 0, 0, string([]byte{tagMap, 0, 0, 0, 0xFF, 0xFF, 0x3F}), int64(0))
	f.Fuzz(func(t *testing.T, epoch int64, base int, queues int, ovKey int, ovVal int, prefix string, seq int64) {
		_, _ = decodeMap([]byte(prefix))
		m := &Map{
			Epoch:     epoch,
			Base:      base,
			Queues:    queues,
			Overrides: map[int]int{ovKey: ovVal},
			Splits:    []Split{{Prefix: prefix, Shards: []int{base}}},
			SeqBase:   map[int]int64{ovKey: seq},
			Gens:      map[int]int64{},
		}
		got, err := decodeMap(encodeMap(m))
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if !reflect.DeepEqual(got, m) {
			t.Fatalf("round trip:\n got %+v\nwant %+v", got, m)
		}
	})
}

package shardmap

// Wire codec for the durable routing table (package wire). Map keys are
// sorted so equal maps always encode to equal bytes — the map blob
// participates in item-level conditional writes and deterministic replay,
// so encoding must not depend on Go's map iteration order.

import (
	"fmt"
	"sort"

	"faaskeeper/internal/wire"
)

const tagMap byte = 0xC1

// encodeMap serializes the map into freshly owned bytes (they are stored
// in the durable item).
func encodeMap(m *Map) []byte {
	e := wire.NewEncoder()
	e.Byte(tagMap)
	e.Varint(m.Epoch)
	e.Varint(int64(m.Base))
	e.Varint(int64(m.Queues))
	appendIntMap(e, m.Overrides)
	e.Uvarint(uint64(len(m.Splits)))
	for _, sp := range m.Splits {
		e.String(sp.Prefix)
		e.Ints(sp.Shards)
	}
	appendInt64Map(e, m.SeqBase)
	appendInt64Map(e, m.Gens)
	e.Bool(m.Mig != nil)
	if m.Mig != nil {
		e.Ints(m.Mig.Slots)
		e.Strings(m.Mig.Prefixes)
		e.Ints(m.Mig.Sources)
		e.Ints(m.Mig.Dests)
	}
	return e.Owned()
}

// decodeMap parses a map blob; the three lookup maps are never nil.
func decodeMap(b []byte) (*Map, error) {
	d := wire.NewDecoder(b)
	if d.Byte() != tagMap {
		return nil, fmt.Errorf("%w: shard map tag", wire.ErrCorrupt)
	}
	m := &Map{
		Epoch:  d.Varint(),
		Base:   int(d.Varint()),
		Queues: int(d.Varint()),
	}
	m.Overrides = readIntMap(&d)
	if ns := d.Count(); ns > 0 {
		m.Splits = make([]Split, 0, ns)
		for i := 0; i < ns; i++ {
			m.Splits = append(m.Splits, Split{Prefix: d.String(), Shards: d.Ints()})
		}
	}
	m.SeqBase = readInt64Map(&d)
	m.Gens = readInt64Map(&d)
	if d.Bool() {
		m.Mig = &Migration{
			Slots:    d.Ints(),
			Prefixes: d.Strings(),
			Sources:  d.Ints(),
			Dests:    d.Ints(),
		}
	}
	if err := d.Err(); err != nil {
		return nil, err
	}
	return m, nil
}

func appendIntMap(e *wire.Encoder, m map[int]int) {
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	e.Uvarint(uint64(len(keys)))
	for _, k := range keys {
		e.Varint(int64(k))
		e.Varint(int64(m[k]))
	}
}

func readIntMap(d *wire.Decoder) map[int]int {
	out := map[int]int{}
	for i, n := 0, d.Count(); i < n; i++ {
		k := int(d.Varint())
		out[k] = int(d.Varint())
	}
	return out
}

func appendInt64Map(e *wire.Encoder, m map[int]int64) {
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	e.Uvarint(uint64(len(keys)))
	for _, k := range keys {
		e.Varint(int64(k))
		e.Varint(m[k])
	}
}

func readInt64Map(d *wire.Decoder) map[int]int64 {
	out := map[int]int64{}
	for i, n := 0, d.Count(); i < n; i++ {
		k := int(d.Varint())
		out[k] = d.Varint()
	}
	return out
}

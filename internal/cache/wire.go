package cache

// Wire codec for invalidation records (package wire). In the simulator
// invalidations travel as in-memory values and only their size feeds the
// latency model: invSize bills the record's real varint-framed encoding,
// computed arithmetically with no encode on the hot path.
// EncodeInvalidation and DecodeInvalidation realize that exact format for
// tests and any future off-box cache transport.

import (
	"fmt"

	"faaskeeper/internal/wire"
)

const tagInvalidation byte = 0xD1

// invSize is an invalidation record's on-wire size for the latency model:
// len(EncodeInvalidation(inv)), computed without encoding.
func invSize(inv Invalidation) int {
	return 1 + wire.UvarintLen(uint64(len(inv.Path))) + len(inv.Path) + wire.VarintLen(inv.Mzxid)
}

// EncodeInvalidation serializes one record in the binary wire format.
func EncodeInvalidation(inv Invalidation) []byte {
	e := wire.NewEncoder()
	e.Byte(tagInvalidation)
	e.String(inv.Path)
	e.Varint(inv.Mzxid)
	return e.Owned()
}

// DecodeInvalidation parses a record produced by EncodeInvalidation.
func DecodeInvalidation(b []byte) (Invalidation, error) {
	d := wire.NewDecoder(b)
	if d.Byte() != tagInvalidation {
		return Invalidation{}, fmt.Errorf("%w: invalidation tag", wire.ErrCorrupt)
	}
	inv := Invalidation{Path: d.String(), Mzxid: d.Varint()}
	return inv, d.Err()
}

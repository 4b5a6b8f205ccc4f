package txn

// Wire codec for the op vocabulary (package wire): the request's op list
// as a tagged blob. The validated sub-ops ride core's leader message in
// core's own layout.

import (
	"fmt"

	"faaskeeper/internal/wire"
	"faaskeeper/internal/znode"
)

// tagOps leads an op blob, so a corrupt or mis-routed buffer fails loudly
// instead of decoding garbage.
const tagOps byte = 0xA1

// EncodeOps serializes an op list (a multi() request's Data). The bytes
// are freshly owned: the request retains them.
func EncodeOps(ops []Op) []byte {
	e := wire.NewEncoder()
	e.Byte(tagOps)
	e.Uvarint(uint64(len(ops)))
	for i := range ops {
		AppendOp(e, ops[i])
	}
	return e.Owned()
}

// DecodeOps parses an op blob produced by EncodeOps.
func DecodeOps(b []byte) ([]Op, error) {
	d := wire.NewDecoder(b)
	if d.Byte() != tagOps {
		return nil, fmt.Errorf("%w: txn ops tag", wire.ErrCorrupt)
	}
	n := d.Count()
	if err := d.Err(); err != nil {
		return nil, err
	}
	ops := make([]Op, 0, n)
	for i := 0; i < n; i++ {
		ops = append(ops, ReadOp(&d))
	}
	if err := d.Err(); err != nil {
		return nil, err
	}
	return ops, nil
}

// AppendOp appends one Op in the binary format.
func AppendOp(e *wire.Encoder, op Op) {
	e.String(string(op.Type))
	e.String(op.Path)
	e.Bytes(op.Data)
	e.Varint(int64(op.Version))
	e.Byte(byte(op.Flags))
}

// ReadOp decodes one Op. Data is a zero-copy view into the input.
func ReadOp(d *wire.Decoder) Op {
	return Op{
		Type:    OpType(d.String()),
		Path:    d.String(),
		Data:    d.Bytes(),
		Version: int32(d.Varint()),
		Flags:   znode.Flags(d.Byte()),
	}
}

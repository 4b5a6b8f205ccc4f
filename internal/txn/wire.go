package txn

// Wire codecs for the op vocabulary (package wire). Both op lists also
// ride inside core's leader messages, so the element codecs are exported
// for core to compose.

import (
	"fmt"

	"faaskeeper/internal/wire"
	"faaskeeper/internal/znode"
)

// Format tags: one leading byte per blob so a corrupt or mis-routed
// buffer fails loudly instead of decoding garbage.
const (
	tagOps      byte = 0xA1
	tagResolved byte = 0xA2
)

// EncodeOps serializes an op list (a multi() request's Data, the durable
// record's op blob). The bytes are freshly owned: the record layer retains
// them.
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

// EncodeResolved serializes the decision's resolved-op list.
func EncodeResolved(ops []ResolvedOp) []byte {
	e := wire.NewEncoder()
	e.Byte(tagResolved)
	AppendResolvedOps(e, ops)
	return e.Owned()
}

// DecodeResolved parses a record's resolved-op blob.
func DecodeResolved(b []byte) ([]ResolvedOp, error) {
	d := wire.NewDecoder(b)
	if d.Byte() != tagResolved {
		return nil, fmt.Errorf("%w: txn resolved tag", wire.ErrCorrupt)
	}
	ops := ReadResolvedOps(&d)
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

// AppendResolvedOps appends a count-prefixed resolved-op list.
func AppendResolvedOps(e *wire.Encoder, ops []ResolvedOp) {
	e.Uvarint(uint64(len(ops)))
	for i := range ops {
		op := &ops[i]
		e.String(string(op.Type))
		e.String(op.Path)
		e.String(op.ParentPath)
		e.Bytes(op.Data)
		e.Varint(int64(op.Version))
		e.Varint(int64(op.Cversion))
		e.String(op.EphOwner)
		e.String(op.ChildAdd)
		e.String(op.ChildDel)
		e.Varint(int64(op.Shard))
	}
}

// ReadResolvedOps decodes a count-prefixed resolved-op list. Data fields
// are zero-copy views into the input.
func ReadResolvedOps(d *wire.Decoder) []ResolvedOp {
	n := d.Count()
	if n == 0 {
		return nil
	}
	ops := make([]ResolvedOp, 0, n)
	for i := 0; i < n; i++ {
		ops = append(ops, ResolvedOp{
			Type:       OpType(d.String()),
			Path:       d.String(),
			ParentPath: d.String(),
			Data:       d.Bytes(),
			Version:    int32(d.Varint()),
			Cversion:   int32(d.Varint()),
			EphOwner:   d.String(),
			ChildAdd:   d.String(),
			ChildDel:   d.String(),
			Shard:      int(d.Varint()),
		})
	}
	return ops
}

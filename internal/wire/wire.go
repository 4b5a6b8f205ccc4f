// Package wire is the hand-rolled binary codec every message in the
// pipeline travels in: length-prefixed, varint-based, reflection-free, with
// pooled encode buffers and a zero-copy decoder. The paper asks only for a
// compact binary payload that keeps a 250 kB node inside SQS's 256 kB
// message limit (Section 4.4); each wire type owns a hand-written format
// built from the primitives here, led by a one-byte tag so a mis-routed or
// corrupt buffer fails loudly instead of decoding garbage.
//
// Ownership rules:
//
//   - Encoder buffers come from a sync.Pool. Call Release once the bytes
//     have been consumed or copied (cloud/queue.Send copies the body, so
//     Release immediately after Send is safe). If the callee retains the
//     slice (e.g. faas.InvokeAsync captures the payload in a goroutine),
//     call Detach first to hand over ownership (Owned does both).
//   - Decoder.Bytes returns a sub-slice of the input, not a copy. Callers
//     that outlive the input buffer must copy; callers decoding a queue
//     message they own may alias freely.
package wire

import (
	"encoding/binary"
	"errors"
	"sync"
)

// ErrCorrupt is returned when decoding malformed bytes.
var ErrCorrupt = errors.New("wire: corrupt encoding")

// maxCount bounds decoded collection lengths so corrupt input cannot
// drive huge allocations (same ceiling znode uses).
const maxCount = 1 << 20

// Encoder is an append-only scratch buffer. Obtain with NewEncoder,
// return with Release.
type Encoder struct {
	buf []byte
}

var encPool = sync.Pool{
	New: func() any { return &Encoder{buf: make([]byte, 0, 512)} },
}

// NewEncoder takes a pooled encoder with an empty buffer.
func NewEncoder() *Encoder {
	e := encPool.Get().(*Encoder)
	e.buf = e.buf[:0]
	return e
}

// Release returns the encoder (and its buffer, unless Detached) to the
// pool. The encoder must not be used afterwards.
func (e *Encoder) Release() {
	if cap(e.buf) > 1<<16 {
		// Don't let one giant payload pin a large buffer in the pool.
		e.buf = nil
	}
	encPool.Put(e)
}

// Data returns the encoded bytes. The slice aliases the pooled buffer:
// valid until Release, unless Detach hands over ownership.
func (e *Encoder) Data() []byte { return e.buf }

// Detach relinquishes the current buffer so the bytes survive Release.
func (e *Encoder) Detach() { e.buf = nil }

// Owned finishes an encode whose bytes outlive the encoder: it detaches
// and returns them, and releases the encoder.
func (e *Encoder) Owned() []byte {
	b := e.buf
	e.Detach()
	e.Release()
	return b
}

// Byte appends one byte.
func (e *Encoder) Byte(b byte) { e.buf = append(e.buf, b) }

// Bool appends a bool as one byte.
func (e *Encoder) Bool(v bool) {
	if v {
		e.buf = append(e.buf, 1)
	} else {
		e.buf = append(e.buf, 0)
	}
}

// Uvarint appends an unsigned varint.
func (e *Encoder) Uvarint(v uint64) { e.buf = binary.AppendUvarint(e.buf, v) }

// Varint appends a zig-zag signed varint.
func (e *Encoder) Varint(v int64) { e.buf = binary.AppendVarint(e.buf, v) }

// String appends a length-prefixed string.
func (e *Encoder) String(s string) {
	e.buf = binary.AppendUvarint(e.buf, uint64(len(s)))
	e.buf = append(e.buf, s...)
}

// Bytes appends a length-prefixed byte slice.
func (e *Encoder) Bytes(b []byte) {
	e.buf = binary.AppendUvarint(e.buf, uint64(len(b)))
	e.buf = append(e.buf, b...)
}

// Int64s appends a count-prefixed []int64.
func (e *Encoder) Int64s(v []int64) {
	e.buf = binary.AppendUvarint(e.buf, uint64(len(v)))
	for _, x := range v {
		e.buf = binary.AppendVarint(e.buf, x)
	}
}

// Ints appends a count-prefixed []int.
func (e *Encoder) Ints(v []int) {
	e.buf = binary.AppendUvarint(e.buf, uint64(len(v)))
	for _, x := range v {
		e.buf = binary.AppendVarint(e.buf, int64(x))
	}
}

// Strings appends a count-prefixed []string.
func (e *Encoder) Strings(v []string) {
	e.buf = binary.AppendUvarint(e.buf, uint64(len(v)))
	for _, s := range v {
		e.String(s)
	}
}

// Decoder walks an encoded buffer. Errors latch: after the first
// malformed read every subsequent read returns the zero value, and Err
// reports the failure once at the end (the znode reader pattern).
type Decoder struct {
	buf []byte
	err error
}

// NewDecoder wraps b for decoding. The decoder is a value type; keep it
// on the stack.
func NewDecoder(b []byte) Decoder { return Decoder{buf: b} }

// Err returns the latched decode error, wrapping ErrCorrupt.
func (d *Decoder) Err() error { return d.err }

// Len reports the unread byte count.
func (d *Decoder) Len() int { return len(d.buf) }

func (d *Decoder) fail() {
	if d.err == nil {
		d.err = ErrCorrupt
	}
}

// Byte reads one byte.
func (d *Decoder) Byte() byte {
	if d.err != nil || len(d.buf) < 1 {
		d.fail()
		return 0
	}
	b := d.buf[0]
	d.buf = d.buf[1:]
	return b
}

// Bool reads a one-byte bool.
func (d *Decoder) Bool() bool { return d.Byte() == 1 }

// Uvarint reads an unsigned varint.
func (d *Decoder) Uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf)
	if n <= 0 {
		d.fail()
		return 0
	}
	d.buf = d.buf[n:]
	return v
}

// Varint reads a zig-zag signed varint.
func (d *Decoder) Varint() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.buf)
	if n <= 0 {
		d.fail()
		return 0
	}
	d.buf = d.buf[n:]
	return v
}

// String reads a length-prefixed string (allocates the string copy).
func (d *Decoder) String() string { return string(d.view()) }

// Bytes reads a length-prefixed byte slice as a zero-copy view into the
// input. nil for an empty slice.
func (d *Decoder) Bytes() []byte {
	b := d.view()
	if len(b) == 0 {
		return nil
	}
	return b
}

// BytesCopy reads a length-prefixed byte slice into fresh memory for
// callers that outlive the input buffer.
func (d *Decoder) BytesCopy() []byte {
	b := d.view()
	if len(b) == 0 {
		return nil
	}
	return append([]byte(nil), b...)
}

func (d *Decoder) view() []byte {
	ln := d.Uvarint()
	if d.err != nil {
		return nil
	}
	if uint64(len(d.buf)) < ln {
		d.fail()
		return nil
	}
	b := d.buf[:ln]
	d.buf = d.buf[ln:]
	return b
}

// Int64s reads a count-prefixed []int64. nil for an empty list.
func (d *Decoder) Int64s() []int64 {
	n := d.Count()
	if n <= 0 {
		return nil
	}
	out := make([]int64, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, d.Varint())
	}
	return out
}

// Ints reads a count-prefixed []int. nil for an empty list.
func (d *Decoder) Ints() []int {
	n := d.Count()
	if n <= 0 {
		return nil
	}
	out := make([]int, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, int(d.Varint()))
	}
	return out
}

// Strings reads a count-prefixed []string. nil for an empty list.
func (d *Decoder) Strings() []string {
	n := d.Count()
	if n <= 0 {
		return nil
	}
	out := make([]string, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, d.String())
	}
	return out
}

// Count reads a collection length (exported for composed codecs). Every
// element occupies at least one byte, so a count beyond the unread input
// is corrupt — checked before the caller sizes an allocation by it.
func (d *Decoder) Count() int {
	n := d.Uvarint()
	if n > maxCount || n > uint64(len(d.buf)) {
		d.fail()
		return 0
	}
	return int(n)
}

// UvarintLen reports the encoded size of v, for exact size accounting
// without encoding (the cache invalidation cost model uses this).
func UvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

// VarintLen reports the encoded size of the zig-zag varint for v.
func VarintLen(v int64) int {
	return UvarintLen(uint64(v)<<1 ^ uint64(v>>63))
}

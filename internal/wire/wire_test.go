package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"strings"
	"testing"
	"unsafe"
)

func TestPrimitiveRoundTrip(t *testing.T) {
	e := NewEncoder()
	defer e.Release()
	e.Byte(0xAB)
	e.Uvarint(0)
	e.Uvarint(math.MaxUint64)
	e.Varint(-1)
	e.Varint(math.MinInt64)
	e.Varint(math.MaxInt64)
	e.String("")
	e.String("hello/世界")
	e.Bytes(nil)
	e.Bytes([]byte{1, 2, 3})
	e.Int64s([]int64{-5, 0, 7})
	e.Strings([]string{"a", "", "ccc"})

	d := NewDecoder(e.Data())
	if got := d.Byte(); got != 0xAB {
		t.Errorf("Byte = %x", got)
	}
	if d.Uvarint() != 0 || d.Uvarint() != math.MaxUint64 {
		t.Error("Uvarint round trip")
	}
	if d.Varint() != -1 || d.Varint() != math.MinInt64 || d.Varint() != math.MaxInt64 {
		t.Error("Varint round trip")
	}
	if d.String() != "" || d.String() != "hello/世界" {
		t.Error("String round trip")
	}
	if d.Bytes() != nil {
		t.Error("empty Bytes should decode nil")
	}
	if !bytes.Equal(d.Bytes(), []byte{1, 2, 3}) {
		t.Error("Bytes round trip")
	}
	if got := d.Int64s(); len(got) != 3 || got[0] != -5 || got[1] != 0 || got[2] != 7 {
		t.Errorf("Int64s = %v", got)
	}
	if got := d.Strings(); len(got) != 3 || got[0] != "a" || got[1] != "" || got[2] != "ccc" {
		t.Errorf("Strings = %v", got)
	}
	if err := d.Err(); err != nil {
		t.Fatalf("Err = %v", err)
	}
	if d.Len() != 0 {
		t.Fatalf("trailing bytes: %d", d.Len())
	}
}

func TestDecoderZeroCopyView(t *testing.T) {
	e := NewEncoder()
	defer e.Release()
	e.Bytes([]byte("payload"))
	buf := append([]byte(nil), e.Data()...)

	d := NewDecoder(buf)
	view := d.Bytes()
	buf[len(buf)-1] = 'X' // mutate the input: a view must observe it
	if string(view) != "payloaX" {
		t.Errorf("Bytes is not a view: %q", view)
	}
}

// TestDecoderKnown: a known string comes back as the caller's own string,
// without aliasing the input; any other reads as a view into the input.
// Neither allocates, and a short input latches the error.
func TestDecoderKnown(t *testing.T) {
	known := []string{"create", "set_data"}
	e := NewEncoder()
	defer e.Release()
	e.String("set_data")
	e.String("other")
	buf := append([]byte(nil), e.Data()...)
	var got, other string
	allocs := testing.AllocsPerRun(100, func() {
		d := NewDecoder(buf)
		got, other = d.Known(known...), d.Known(known...)
	})
	if got != "set_data" || unsafe.StringData(got) != unsafe.StringData(known[1]) || other != "other" ||
		!within(other, buf) || allocs != 0 {
		t.Errorf("Known read %q (the constant: %v) and %q (a view: %v) with %v allocations, want the constant and a view with 0",
			got, unsafe.StringData(got) == unsafe.StringData(known[1]), other, within(other, buf), allocs)
	}
	d := NewDecoder(buf[:3])
	if d.Known(known...) != "" || d.Err() == nil {
		t.Error("a truncated string decoded without error")
	}
}

// TestDecoderStringsBorrow: String and every element of Strings are views
// into the decoded buffer, not copies, and decoding them allocates only
// the list.
func TestDecoderStringsBorrow(t *testing.T) {
	e := NewEncoder()
	defer e.Release()
	e.String("/a/b")
	e.Strings([]string{"c1", "c2"})
	buf := append([]byte(nil), e.Data()...)
	var s string
	var list []string
	allocs := testing.AllocsPerRun(100, func() {
		d := NewDecoder(buf)
		s, list = d.String(), d.Strings()
	})
	if s != "/a/b" || !within(s, buf) || len(list) != 2 || !within(list[0], buf) || !within(list[1], buf) {
		t.Fatalf("decoded %q %q: not views into the input", s, list)
	}
	if allocs != 1 {
		t.Errorf("String and Strings allocated %v times, want 1 (the list)", allocs)
	}
	buf[len(buf)-1] = 'X' // a view observes a write to its input
	if list[1] != "cX" {
		t.Errorf("Strings element is not a view: %q", list[1])
	}
}

// within reports whether s's bytes lie inside b.
func within(s string, b []byte) bool {
	p := uintptr(unsafe.Pointer(unsafe.StringData(s)))
	lo := uintptr(unsafe.Pointer(unsafe.SliceData(b)))
	return len(s) > 0 && p >= lo && p+uintptr(len(s)) <= lo+uintptr(len(b))
}

func TestDecoderErrorLatches(t *testing.T) {
	// A truncated length prefix fails, and every later read stays zero.
	d := NewDecoder([]byte{0x05, 'a'}) // claims 5 bytes, has 1
	if got := d.String(); got != "" {
		t.Errorf("short String = %q", got)
	}
	if !errors.Is(d.Err(), ErrCorrupt) {
		t.Fatalf("Err = %v", d.Err())
	}
	if d.Byte() != 0 || d.Uvarint() != 0 || d.Varint() != 0 || d.Bytes() != nil {
		t.Error("reads after error must return zero values")
	}
}

func TestDecoderCountCeiling(t *testing.T) {
	e := NewEncoder()
	defer e.Release()
	e.Uvarint(maxCount + 1) // a corrupt count must not drive allocation
	d := NewDecoder(e.Data())
	if got := d.Int64s(); got != nil {
		t.Errorf("oversized count decoded: %v", got)
	}
	if !errors.Is(d.Err(), ErrCorrupt) {
		t.Fatalf("Err = %v", d.Err())
	}
	// A count under the ceiling but beyond the unread input is corrupt
	// too: it must fail before sizing an allocation, not after.
	e2 := NewEncoder()
	defer e2.Release()
	e2.Uvarint(1000)
	e2.Byte(1)
	d = NewDecoder(e2.Data())
	if got := d.Strings(); got != nil || !errors.Is(d.Err(), ErrCorrupt) {
		t.Errorf("count beyond input: got %v, Err = %v", got, d.Err())
	}
}

func TestEncoderDetach(t *testing.T) {
	e := NewEncoder()
	e.String("keep me")
	b := e.Data()
	e.Detach()
	e.Release()
	// Drain the pool slot and overwrite: the detached bytes must survive.
	e2 := NewEncoder()
	e2.String("overwrite")
	d := NewDecoder(b)
	if got := d.String(); got != "keep me" {
		t.Errorf("detached bytes clobbered: %q", got)
	}
	e2.Release()
}

func TestVarintLenMatchesEncoding(t *testing.T) {
	var scratch [binary.MaxVarintLen64]byte
	for _, v := range []uint64{0, 1, 0x7F, 0x80, 1 << 14, 1 << 21, math.MaxUint64} {
		if got, want := UvarintLen(v), binary.PutUvarint(scratch[:], v); got != want {
			t.Errorf("UvarintLen(%d) = %d, want %d", v, got, want)
		}
	}
	for _, v := range []int64{0, -1, 1, 63, 64, -64, -65, math.MinInt64, math.MaxInt64} {
		if got, want := VarintLen(v), binary.PutVarint(scratch[:], v); got != want {
			t.Errorf("VarintLen(%d) = %d, want %d", v, got, want)
		}
	}
}

// TestStringsLenMatchesEncoding: StringLen and StringsLen count what String
// and Strings write, across the one- and two-byte length prefixes, and a
// Sized encoder of that size takes them without growing.
func TestStringsLenMatchesEncoding(t *testing.T) {
	long := strings.Repeat("x", 200)
	for _, v := range [][]string{nil, {""}, {"a"}, {long}, {"a", long, "", "b"}} {
		e := NewEncoder()
		e.Strings(v)
		if got, want := StringsLen(v), len(e.Data()); got != want {
			t.Errorf("StringsLen(%d strings) = %d, want %d", len(v), got, want)
		}
		e.Release()
		s := Sized(StringsLen(v))
		s.Strings(v)
		if len(s.Data()) != cap(s.Data()) {
			t.Errorf("Sized(%d): %d bytes in %d", StringsLen(v), len(s.Data()), cap(s.Data()))
		}
		for _, x := range v {
			e := NewEncoder()
			e.String(x)
			if got, want := StringLen(x), len(e.Data()); got != want {
				t.Errorf("StringLen(%d bytes) = %d, want %d", len(x), got, want)
			}
			e.Release()
		}
	}
}

// FuzzPrimitives round-trips one of each primitive through the encoder
// and decoder and checks exact value recovery plus the size accountants.
func FuzzPrimitives(f *testing.F) {
	f.Add(uint64(0), int64(0), "", []byte(nil))
	f.Add(uint64(math.MaxUint64), int64(math.MinInt64), "path/節点", []byte{0, 1, 2})
	f.Fuzz(func(t *testing.T, u uint64, v int64, s string, b []byte) {
		e := NewEncoder()
		defer e.Release()
		e.Uvarint(u)
		e.Varint(v)
		e.String(s)
		e.Bytes(b)
		d := NewDecoder(e.Data())
		if got := d.Uvarint(); got != u {
			t.Fatalf("Uvarint: %d != %d", got, u)
		}
		if got := d.Varint(); got != v {
			t.Fatalf("Varint: %d != %d", got, v)
		}
		if got := d.String(); got != s {
			t.Fatalf("String: %q != %q", got, s)
		}
		if got := d.Bytes(); !bytes.Equal(got, b) {
			t.Fatalf("Bytes: %v != %v", got, b)
		}
		if err := d.Err(); err != nil || d.Len() != 0 {
			t.Fatalf("err=%v trailing=%d", err, d.Len())
		}
	})
}

// FuzzDecoderNeverPanics feeds arbitrary bytes through every read method:
// corrupt input must latch an error, never panic or over-allocate.
func FuzzDecoderNeverPanics(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01})
	f.Fuzz(func(t *testing.T, b []byte) {
		d := NewDecoder(b)
		_ = d.Byte()
		_ = d.Uvarint()
		_ = d.Varint()
		_ = d.String()
		_ = d.Bytes()
		_ = d.Int64s()
		_ = d.Strings()
	})
}

// TestNestedMatchesBytes: a field built in place encodes exactly as the
// same bytes passed to Bytes, across one-, two- and three-byte length
// prefixes, with fields on both sides.
func TestNestedMatchesBytes(t *testing.T) {
	for _, n := range []int{0, 1, 127, 128, 1100, 1 << 14, 250 << 10} {
		field := bytes.Repeat([]byte{0xAB}, n)
		want, got := NewEncoder(), NewEncoder()
		for _, e := range []*Encoder{want, got} {
			e.Byte(1)
			e.String("before")
		}
		want.Bytes(field)
		got.Nested(func(b []byte) []byte { return append(b, field...) })
		for _, e := range []*Encoder{want, got} {
			e.Varint(-3)
		}
		if !bytes.Equal(got.Data(), want.Data()) {
			t.Errorf("%d-byte field: Nested and Bytes encode differently", n)
		}
		want.Release()
		got.Release()
	}
}

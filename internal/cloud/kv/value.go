// Package kv implements the simulated key-value database used as
// FaaSKeeper's system store: a DynamoDB/Datastore-like table with strongly
// and eventually consistent reads, conditional update expressions, atomic
// counters and list operations, multi-item transactions, change streams,
// per-operation billing, and latencies calibrated to the paper's Table 6a.
//
// An Item is a short slice of named attributes. The table never shares a
// stored item with a caller: Put and SeedPut store a deep copy, a commit
// swaps in a whole new item, and Get, Update, Peek, Scan and stream records
// return deep copies. GetView is the one read-only view of table storage.
package kv

import (
	"bytes"
	"fmt"
	"slices"
	"strings"
)

// Kind enumerates the attribute value types the reproduction needs.
type Kind uint8

// Supported attribute kinds.
const (
	KindString Kind = iota
	KindNumber
	KindBytes
	KindNumList
	KindStrList
)

// Value is a typed attribute value (the equivalent of a DynamoDB
// AttributeValue restricted to the types FaaSKeeper uses).
type Value struct {
	Kind Kind
	Str  string
	Num  int64
	Byt  []byte
	NL   []int64
	SL   []string
}

// S builds a string value.
func S(s string) Value { return Value{Kind: KindString, Str: s} }

// N builds a number value.
func N(n int64) Value { return Value{Kind: KindNumber, Num: n} }

// B builds a binary value.
func B(b []byte) Value { return Value{Kind: KindBytes, Byt: b} }

// NumList builds a number-list value.
func NumList(ns ...int64) Value { return Value{Kind: KindNumList, NL: ns} }

// StrList builds a string-list value.
func StrList(ss ...string) Value { return Value{Kind: KindStrList, SL: ss} }

// Size returns the billing size of the value in bytes.
func (v Value) Size() int {
	switch v.Kind {
	case KindString:
		return len(v.Str)
	case KindNumber:
		return 8
	case KindBytes:
		return len(v.Byt)
	case KindNumList:
		return 8 * len(v.NL)
	case KindStrList:
		n := 0
		for _, s := range v.SL {
			n += len(s) + 1
		}
		return n
	}
	return 0
}

// Equal reports deep equality of two values.
func (v Value) Equal(o Value) bool {
	if v.Kind != o.Kind {
		return false
	}
	switch v.Kind {
	case KindString:
		return v.Str == o.Str
	case KindNumber:
		return v.Num == o.Num
	case KindBytes:
		return bytes.Equal(v.Byt, o.Byt)
	case KindNumList:
		if len(v.NL) != len(o.NL) {
			return false
		}
		for i := range v.NL {
			if v.NL[i] != o.NL[i] {
				return false
			}
		}
		return true
	case KindStrList:
		if len(v.SL) != len(o.SL) {
			return false
		}
		for i := range v.SL {
			if v.SL[i] != o.SL[i] {
				return false
			}
		}
		return true
	}
	return false
}

// Clone returns a deep copy so callers cannot alias stored state.
func (v Value) Clone() Value {
	v.unshare()
	return v
}

// unshare replaces the slice v holds with a copy of it.
func (v *Value) unshare() {
	switch v.Kind {
	case KindBytes:
		v.Byt = append([]byte(nil), v.Byt...)
	case KindNumList:
		v.NL = append([]int64(nil), v.NL...)
	case KindStrList:
		v.SL = append([]string(nil), v.SL...)
	}
}

// String renders the value for debugging.
func (v Value) String() string {
	switch v.Kind {
	case KindString:
		return fmt.Sprintf("%q", v.Str)
	case KindNumber:
		return fmt.Sprintf("%d", v.Num)
	case KindBytes:
		return fmt.Sprintf("bytes[%d]", len(v.Byt))
	case KindNumList:
		return fmt.Sprintf("%v", v.NL)
	case KindStrList:
		return fmt.Sprintf("%q", v.SL)
	}
	return "?"
}

// Attr is one named attribute of an item.
type Attr struct {
	Name string
	V    Value
}

// Item is one table row: a short list of attributes with unique names, in
// the order they were first set. The system store's rows carry about ten
// attributes, so a linear scan by name beats hashing, a copy is one
// allocation plus the list attributes, and nothing grows behind the
// caller's back. A literal should not repeat a name; Set, Remove and the
// table's write paths keep names unique. Order carries no meaning: Size,
// String and every condition are independent of it.
type Item []Attr

func (it Item) index(name string) int {
	for i := range it {
		if it[i].Name == name {
			return i
		}
	}
	return -1
}

// ptr returns a pointer to the named attribute's value in place, nil when
// absent. The pointer is valid until the item is next appended to.
func (it Item) ptr(name string) *Value {
	if i := it.index(name); i >= 0 {
		return &it[i].V
	}
	return nil
}

// slot is ptr that appends the attribute with the zero Value when absent.
func (it *Item) slot(name string) *Value {
	if v := it.ptr(name); v != nil {
		return v
	}
	*it = append(*it, Attr{Name: name})
	return &(*it)[len(*it)-1].V
}

// Get returns the named attribute's value, or the zero Value when the item
// has no such attribute.
func (it Item) Get(name string) Value {
	if v := it.ptr(name); v != nil {
		return *v
	}
	return Value{}
}

// Lookup returns the named attribute's value and whether it is present.
func (it Item) Lookup(name string) (Value, bool) {
	if v := it.ptr(name); v != nil {
		return *v, true
	}
	return Value{}, false
}

// Set assigns v to the named attribute, adding it when absent.
func (it *Item) Set(name string, v Value) { *it.slot(name) = v }

// Remove deletes the named attribute if present.
func (it *Item) Remove(name string) {
	if i := it.index(name); i >= 0 {
		*it = slices.Delete(*it, i, i+1)
	}
}

// Size returns the billing size of the item: attribute names plus values.
func (it Item) Size() int {
	n := 0
	for i := range it {
		n += len(it[i].Name) + it[i].V.Size()
	}
	return n
}

// Clone deep-copies the item. The copy is never nil.
func (it Item) Clone() Item { return it.clone(0) }

// clone is Clone with room for extra more attributes.
func (it Item) clone(extra int) Item {
	out := make(Item, len(it), len(it)+extra)
	copy(out, it)
	for i := range out {
		out[i].V.unshare()
	}
	return out
}

// String renders the item with attributes sorted for deterministic output.
func (it Item) String() string {
	sorted := slices.Clone(it)
	slices.SortFunc(sorted, func(a, b Attr) int { return strings.Compare(a.Name, b.Name) })
	var b strings.Builder
	b.WriteByte('{')
	for i, a := range sorted {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s: %s", a.Name, a.V)
	}
	b.WriteByte('}')
	return b.String()
}

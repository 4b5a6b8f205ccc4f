// Package kv implements the simulated key-value database used as
// FaaSKeeper's system store: a DynamoDB/Datastore-like table with strongly
// and eventually consistent reads, conditional update expressions, atomic
// counters and list operations, multi-item transactions, change streams,
// per-operation billing, and latencies calibrated to the paper's Table 6a.
//
// An Item is a short slice of named attributes. A stored item is never
// mutated in place: Put and SeedPut store a deep copy of the caller's item,
// and a commit installs a whole new attribute list — a copy of the old one
// with the update actions applied, where an action that changes a list or
// a byte value builds a new slice instead of writing into the stored one.
// The old and the new version may therefore share the slices nobody
// changed. A row keeps two versions, the current one and the one before
// it (for eventually consistent reads); the commit that pushes a version
// out of the second slot clears its attribute array and keeps it, and the
// table builds its next version into that array instead of a new one
// (Table.build). So:
//
//   - Get, Peek, Scan and stream records return deep copies the caller
//     owns and may modify.
//   - GetView, GetViews and Update return read-only views of table
//     storage. A view's attribute list is valid until its reader next
//     blocks: the second commit of the row after it clears the array for
//     reuse, and the next commit of any row may build into it. A view read
//     after that finds every attribute empty or, just as likely, another
//     row's attributes — data that looks valid and is not. Every
//     string, byte and list value inside a view stays immutable forever,
//     so a reader decodes the view before it blocks and may keep the
//     values it took out without copying them. The caller must not modify
//     the item or any slice it holds, and must copy whatever part of it it
//     retains to modify.
//
// The expression vocabulary is closed on purpose. The paper builds every
// synchronization primitive from DynamoDB's fixed set of update and
// condition expressions, and Update and Cond model exactly that set: each
// interface has an unexported method, so only this package's types
// implement it, and the table reaches them through exhaustive type
// switches (evalCond, applyUpdate, updateSize) instead of dynamic calls.
// Escape analysis can then see that the table keeps neither an action nor
// a condition, so a list or a condition built at the call stays on the
// caller's stack; a dynamic call would box every one of them on the heap.
// A pointer form is dispatched only where a caller keeps actions in reused
// memory (the switches list which). Each action is one clause of a DynamoDB
// update expression but Move, which is two: SET #to = #from REMOVE #from
// (list_append onto an existing To; its comment gives the spelling where
// From may be missing, which DynamoDB rejects as an operand).
package kv

import (
	"bytes"
	"fmt"
	"slices"
	"strings"
	"unsafe"

	"faaskeeper/internal/sim"
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

	kindRetired // poison's (index), never a stored value's
)

// Value is a typed attribute value (the equivalent of a DynamoDB
// AttributeValue restricted to the types FaaSKeeper uses). It is three
// words — the kind, a number or a length, and a pointer to a string's bytes
// or a list's first element — because every commit copies its item's
// attribute list into the next version's array (Table.build), and the
// system store's rows carry about ten attributes. A value is immutable:
// the memory it points to is never written, whichever attribute arrays
// hold it. The accessors return the value of their kind and the zero value
// of any other.
type Value struct {
	kind Kind
	n    int64          // the number, or the length of a string, byte or list value
	p    unsafe.Pointer // the bytes or the first element; nil when the length is 0
}

// S builds a string value.
func S(s string) Value {
	v := Value{kind: KindString, n: int64(len(s))}
	if len(s) > 0 {
		v.p = unsafe.Pointer(unsafe.StringData(s))
	}
	return v
}

// N builds a number value.
func N(n int64) Value { return Value{kind: KindNumber, n: n} }

// B builds a binary value.
func B(b []byte) Value { return slice(KindBytes, b) }

// NumList builds a number-list value.
func NumList(ns ...int64) Value { return slice(KindNumList, ns) }

// StrList builds a string-list value.
func StrList(ss ...string) Value { return slice(KindStrList, ss) }

// slice builds a value of kind k over s.
func slice[T any](k Kind, s []T) Value {
	v := Value{kind: k, n: int64(len(s))}
	if len(s) > 0 {
		v.p = unsafe.Pointer(unsafe.SliceData(s))
	}
	return v
}

// view returns v's elements when v is of kind k.
func view[T any](v Value, k Kind) []T {
	if v.kind != k || v.p == nil {
		return nil
	}
	return unsafe.Slice((*T)(v.p), v.n)
}

// Kind returns the value's type.
func (v Value) Kind() Kind { return v.kind }

// Num returns a number value.
func (v Value) Num() int64 {
	if v.kind != KindNumber {
		return 0
	}
	return v.n
}

// Str returns a string value.
func (v Value) Str() string {
	if v.kind != KindString || v.p == nil {
		return ""
	}
	return unsafe.String((*byte)(v.p), v.n)
}

// Byt returns a binary value.
func (v Value) Byt() []byte { return view[byte](v, KindBytes) }

// NL returns a number-list value.
func (v Value) NL() []int64 { return view[int64](v, KindNumList) }

// SL returns a string-list value.
func (v Value) SL() []string { return view[string](v, KindStrList) }

// Size returns the billing size of the value in bytes.
func (v Value) Size() int {
	switch v.kind {
	case KindString, KindBytes:
		return int(v.n)
	case KindNumber:
		return 8
	case KindNumList:
		return 8 * int(v.n)
	case KindStrList:
		n := 0
		for _, s := range v.SL() {
			n += len(s) + 1
		}
		return n
	}
	return 0
}

// Equal reports deep equality of two values.
func (v Value) Equal(o Value) bool {
	if v.kind != o.kind {
		return false
	}
	switch v.kind {
	case KindString:
		return v.Str() == o.Str()
	case KindNumber:
		return v.n == o.n
	case KindBytes:
		return bytes.Equal(v.Byt(), o.Byt())
	case KindNumList:
		return slices.Equal(v.NL(), o.NL())
	case KindStrList:
		return slices.Equal(v.SL(), o.SL())
	}
	return false
}

// Clone returns a deep copy so callers cannot alias stored state.
func (v Value) Clone() Value {
	v.unshare()
	return v
}

// owned returns a copy of v that shares no memory with it, a string's bytes
// included: what an update action stores (see applyUpdate).
func (v Value) owned() Value {
	switch v.kind {
	case KindString:
		return S(strings.Clone(v.Str()))
	case KindBytes:
		return B(bytes.Clone(v.Byt())) // no zeroing of what the copy overwrites
	case KindNumList:
		return NumList(concat(v.NL(), nil)...)
	case KindStrList:
		return StrList(concat(v.SL(), nil)...)
	}
	return Value{kind: v.kind, n: v.n}
}

// concat is slices.Concat(a, b) into a new array: escape analysis sees
// that the result aliases neither (it cannot tell that of slices.Clone's),
// and it is one allocation in every build (slices.Concat makes two under
// -race, which does not fold slices.Grow's make into its append).
func concat[T any](a, b []T) []T { return append(append(make([]T, 0, len(a)+len(b)), a...), b...) }

// unshare replaces the slice v holds with a copy of it.
func (v *Value) unshare() {
	switch v.kind {
	case KindBytes:
		*v = B(slices.Clone(v.Byt()))
	case KindNumList:
		*v = NumList(slices.Clone(v.NL())...)
	case KindStrList:
		*v = StrList(slices.Clone(v.SL())...)
	}
}

// String renders the value for debugging.
func (v Value) String() string {
	switch v.kind {
	case KindString:
		return fmt.Sprintf("%q", v.Str())
	case KindNumber:
		return fmt.Sprintf("%d", v.n)
	case KindBytes:
		return fmt.Sprintf("bytes[%d]", v.n)
	case KindNumList:
		return fmt.Sprintf("%v", v.NL())
	case KindStrList:
		return fmt.Sprintf("%q", v.SL())
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

// poisonRetired is set under the race detector (sim.PoolDropsPuts), where
// Table.commit fills a retired version's array with poison instead of
// reusing it, and index panics on a view that reads one: a view used after
// its reader blocked fails loudly there instead of reading another row.
var poisonRetired = sim.PoolDropsPuts()

// poison is the attribute a retired array holds under the race detector:
// its kind is no kind a value can have, so index checks one byte.
var poison = Attr{Name: "retired", V: Value{kind: kindRetired}}

func (it Item) index(name string) int {
	if poisonRetired && len(it) > 0 && it[0].V.kind == kindRetired {
		panic("kv view used after its reader blocked")
	}
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

// add is slot for an update action: an attribute it appends is named by
// names' copy of name (a fresh copy when names is nil), never by name
// itself (see applyUpdate).
func (it *Item) add(name string, names *nameCopies) *Value {
	if v := it.ptr(name); v != nil {
		return v
	}
	*it = append(*it, Attr{Name: names.copyOf(name)})
	return &(*it)[len(*it)-1].V
}

// nameCopies is a table's copies of the attribute names update actions add
// (Item.add): one kept per name, for the table's lifetime, up to maxNames
// of them, each cut from a block of memory the table only appends to. A
// schema's names are few and kept first; a name minted per write — a watch
// epoch entry or fire record, set once and removed once — is copied into
// the block each time past the bound instead of growing the kept set for
// ever, so it costs an allocation per nameBlock bytes, not one per write.
type nameCopies struct {
	kept  map[string]string
	block []byte
}

const (
	maxNames  = 1 << 10
	nameBlock = 4 << 10
)

func (n *nameCopies) copyOf(name string) string {
	if n == nil {
		return strings.Clone(name)
	}
	if own, ok := n.kept[name]; ok || name == "" {
		return own
	}
	if cap(n.block)-len(n.block) < len(name) {
		n.block = make([]byte, 0, max(nameBlock, len(name)))
	}
	n.block = append(n.block, name...)
	own := unsafe.String(&n.block[len(n.block)-len(name)], len(name)) // never written again
	if len(n.kept) < maxNames {
		n.kept[own] = own
	}
	return own
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
func (it Item) Clone() Item {
	out := it.next(0)
	for i := range out {
		out[i].V.unshare()
	}
	return out
}

// next is the attribute list a commit builds from the stored item it when
// the table has no retired array with room for it (Table.build): a shallow
// copy into a new array with room for extra more attributes. It shares
// every slice value with it, which the update actions never write into
// (see the package comment).
func (it Item) next(extra int) Item {
	out := make(Item, len(it), len(it)+extra)
	copy(out, it)
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

package kv

import (
	"fmt"
	"slices"
)

// Cond is a condition expression evaluated atomically against the current
// item state when an update commits, mirroring DynamoDB condition
// expressions (the mechanism behind the paper's synchronization
// primitives).
type Cond interface {
	Eval(item Item, exists bool) bool
	String() string
}

// Exists requires the item to exist.
type Exists struct{}

// Eval implements Cond.
func (Exists) Eval(_ Item, exists bool) bool { return exists }
func (Exists) String() string                { return "exists" }

// NotExists requires the item to not exist (attribute_not_exists on the
// key, in DynamoDB terms).
type NotExists struct{}

// Eval implements Cond.
func (NotExists) Eval(_ Item, exists bool) bool { return !exists }
func (NotExists) String() string                { return "not_exists" }

// AttrNotExists requires the named attribute to be absent.
type AttrNotExists struct{ Name string }

// Eval implements Cond.
func (c AttrNotExists) Eval(item Item, exists bool) bool {
	if !exists {
		return true
	}
	return item.index(c.Name) < 0
}
func (c AttrNotExists) String() string { return fmt.Sprintf("attr_not_exists(%s)", c.Name) }

// AttrExists requires the named attribute to be present.
type AttrExists struct{ Name string }

// Eval implements Cond.
func (c AttrExists) Eval(item Item, exists bool) bool {
	if !exists {
		return false
	}
	return item.index(c.Name) >= 0
}
func (c AttrExists) String() string { return fmt.Sprintf("attr_exists(%s)", c.Name) }

// Eq requires attribute Name to equal V.
type Eq struct {
	Name string
	V    Value
}

// Eval implements Cond.
func (c Eq) Eval(item Item, exists bool) bool {
	if !exists {
		return false
	}
	v, ok := item.Lookup(c.Name)
	return ok && v.Equal(c.V)
}
func (c Eq) String() string { return fmt.Sprintf("%s == %s", c.Name, c.V) }

// NumLt requires numeric attribute Name to be strictly less than V.
type NumLt struct {
	Name string
	V    int64
}

// Eval implements Cond.
func (c NumLt) Eval(item Item, exists bool) bool {
	if !exists {
		return false
	}
	v, ok := item.Lookup(c.Name)
	return ok && v.Kind == KindNumber && v.Num < c.V
}
func (c NumLt) String() string { return fmt.Sprintf("%s < %d", c.Name, c.V) }

// NumListHeadEq requires the first element of number-list attribute Name to
// equal V; used by the leader to pop per-node transactions in order.
type NumListHeadEq struct {
	Name string
	V    int64
}

// Eval implements Cond.
func (c NumListHeadEq) Eval(item Item, exists bool) bool {
	if !exists {
		return false
	}
	v, ok := item.Lookup(c.Name)
	return ok && v.Kind == KindNumList && len(v.NL) > 0 && v.NL[0] == c.V
}
func (c NumListHeadEq) String() string { return fmt.Sprintf("head(%s) == %d", c.Name, c.V) }

// And is the conjunction of conditions.
type And []Cond

// Eval implements Cond.
func (c And) Eval(item Item, exists bool) bool {
	for _, sub := range c {
		if !sub.Eval(item, exists) {
			return false
		}
	}
	return true
}
func (c And) String() string { return joinConds(c, " AND ") }

// Or is the disjunction of conditions.
type Or []Cond

// Eval implements Cond.
func (c Or) Eval(item Item, exists bool) bool {
	for _, sub := range c {
		if sub.Eval(item, exists) {
			return true
		}
	}
	return false
}
func (c Or) String() string { return joinConds(c, " OR ") }

// Not negates a condition.
type Not struct{ C Cond }

// Eval implements Cond.
func (c Not) Eval(item Item, exists bool) bool { return !c.C.Eval(item, exists) }
func (c Not) String() string                   { return "NOT " + c.C.String() }

func joinConds[T Cond](cs []T, sep string) string {
	s := "("
	for i, c := range cs {
		if i > 0 {
			s += sep
		}
		s += c.String()
	}
	return s + ")"
}

// Update is a single update-expression action, applied atomically with any
// others in the same call.
type Update interface {
	Apply(item *Item)
	payloadSize() int
}

// Set assigns attribute Name to V.
type Set struct {
	Name string
	V    Value
}

// Apply implements Update.
func (u Set) Apply(item *Item) { item.Set(u.Name, u.V.Clone()) }
func (u Set) payloadSize() int { return u.V.Size() }

// Remove deletes attribute Name.
type Remove struct{ Name string }

// Apply implements Update.
func (u Remove) Apply(item *Item) { item.Remove(u.Name) }
func (u Remove) payloadSize() int { return 0 }

// Add atomically adds Delta to numeric attribute Name, creating it at
// Delta when absent (DynamoDB ADD semantics — the atomic counter).
type Add struct {
	Name  string
	Delta int64
}

// Apply implements Update.
func (u Add) Apply(item *Item) {
	v := item.slot(u.Name)
	if v.Kind != KindNumber {
		*v = N(0)
	}
	v.Num += u.Delta
}
func (u Add) payloadSize() int { return 8 }

// ListAppend appends values to number-list attribute Name (the atomic
// list expansion primitive).
type ListAppend struct {
	Name string
	Vals []int64
}

// Apply implements Update.
func (u ListAppend) Apply(item *Item) {
	v := item.slot(u.Name)
	if v.Kind != KindNumList {
		*v = NumList()
	}
	v.NL = append(append([]int64(nil), v.NL...), u.Vals...)
}
func (u ListAppend) payloadSize() int { return 8 * len(u.Vals) }

// ListRemove removes all occurrences of the given values from number-list
// attribute Name (atomic list truncation).
type ListRemove struct {
	Name string
	Vals []int64
}

// Apply implements Update.
func (u ListRemove) Apply(item *Item) {
	v := item.ptr(u.Name)
	if v == nil || v.Kind != KindNumList {
		return
	}
	kept := v.NL[:0:0]
	for _, x := range v.NL {
		if !slices.Contains(u.Vals, x) {
			kept = append(kept, x)
		}
	}
	v.NL = kept
}
func (u ListRemove) payloadSize() int { return 8 * len(u.Vals) }

// ListPopHead removes the first element of number-list attribute Name.
type ListPopHead struct{ Name string }

// Apply implements Update.
func (u ListPopHead) Apply(item *Item) {
	v := item.ptr(u.Name)
	if v == nil || v.Kind != KindNumList || len(v.NL) == 0 {
		return
	}
	v.NL = append([]int64(nil), v.NL[1:]...)
}
func (u ListPopHead) payloadSize() int { return 0 }

// StrListAppend appends strings to string-list attribute Name.
type StrListAppend struct {
	Name string
	Vals []string
}

// Apply implements Update.
func (u StrListAppend) Apply(item *Item) {
	v := item.slot(u.Name)
	if v.Kind != KindStrList {
		*v = StrList()
	}
	v.SL = append(append([]string(nil), v.SL...), u.Vals...)
}
func (u StrListAppend) payloadSize() int {
	n := 0
	for _, s := range u.Vals {
		n += len(s)
	}
	return n
}

// StrListRemove removes all occurrences of the given strings from
// string-list attribute Name.
type StrListRemove struct {
	Name string
	Vals []string
}

// Apply implements Update.
func (u StrListRemove) Apply(item *Item) {
	v := item.ptr(u.Name)
	if v == nil || v.Kind != KindStrList {
		return
	}
	kept := v.SL[:0:0]
	for _, s := range v.SL {
		if !slices.Contains(u.Vals, s) {
			kept = append(kept, s)
		}
	}
	v.SL = kept
}
func (u StrListRemove) payloadSize() int { return 0 }

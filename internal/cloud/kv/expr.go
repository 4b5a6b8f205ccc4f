package kv

import (
	"fmt"
	"slices"
)

// Cond is a condition expression evaluated atomically against the current
// item state when an update commits, mirroring DynamoDB condition
// expressions (the mechanism behind the paper's synchronization
// primitives). The set is closed: its unexported method keeps every
// implementation in this package, and the table evaluates one through
// evalCond's switch, never a dynamic call (see the package comment).
type Cond interface {
	Eval(item Item, exists bool) bool
	String() string
	cond()
}

// Exists requires the item to exist.
type Exists struct{}

// Eval implements Cond.
func (Exists) Eval(_ Item, exists bool) bool { return exists }
func (Exists) String() string                { return "exists" }
func (Exists) cond()                         {}

// NotExists requires the item to not exist (attribute_not_exists on the
// key, in DynamoDB terms).
type NotExists struct{}

// Eval implements Cond.
func (NotExists) Eval(_ Item, exists bool) bool { return !exists }
func (NotExists) String() string                { return "not_exists" }
func (NotExists) cond()                         {}

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
func (AttrNotExists) cond()            {}

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
func (Eq) cond()            {}

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
	return ok && v.Kind() == KindNumber && v.Num() < c.V
}
func (c NumLt) String() string { return fmt.Sprintf("%s < %d", c.Name, c.V) }
func (NumLt) cond()            {}

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
	nl := v.NL()
	return ok && len(nl) > 0 && nl[0] == c.V
}
func (c NumListHeadEq) String() string { return fmt.Sprintf("head(%s) == %d", c.Name, c.V) }
func (NumListHeadEq) cond()            {}

// And is the conjunction of conditions.
type And []Cond

// Eval implements Cond.
func (c And) Eval(item Item, exists bool) bool {
	for _, sub := range c {
		if !evalCond(sub, item, exists) {
			return false
		}
	}
	return true
}
func (c And) String() string { return joinConds(c, " AND ") }
func (And) cond()            {}

// Or is the disjunction of conditions.
type Or []Cond

// Eval implements Cond.
func (c Or) Eval(item Item, exists bool) bool {
	for _, sub := range c {
		if evalCond(sub, item, exists) {
			return true
		}
	}
	return false
}
func (c Or) String() string { return joinConds(c, " OR ") }
func (Or) cond()            {}

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
// others in the same call. Apply returns the item with the action applied.
// It may write into the attribute list it is handed — the commit's own copy
// — but never into a slice value held by it: those are shared with the
// stored version (see the package comment). The set is closed like Cond's,
// by payloadSize, and the table applies an action through applyUpdate's
// switch.
type Update interface {
	Apply(item Item) Item
	payloadSize() int
}

// Set assigns attribute Name to V.
type Set struct {
	Name string
	V    Value
}

// Apply implements Update.
func (u Set) Apply(item Item) Item { return u.apply(item, nil) }

func (u Set) apply(item Item, names *nameCopies) Item {
	*item.add(u.Name, names) = u.V.owned()
	return item
}
func (u Set) payloadSize() int { return u.V.Size() }

// Remove deletes attribute Name.
type Remove struct{ Name string }

// Apply implements Update.
func (u Remove) Apply(item Item) Item {
	item.Remove(u.Name)
	return item
}
func (u Remove) payloadSize() int { return 0 }

// Add atomically adds Delta to numeric attribute Name, creating it at
// Delta when absent (DynamoDB ADD semantics — the atomic counter).
type Add struct {
	Name  string
	Delta int64
}

// Apply implements Update.
func (u Add) Apply(item Item) Item { return u.apply(item, nil) }

func (u Add) apply(item Item, names *nameCopies) Item {
	v := item.add(u.Name, names)
	*v = N(v.Num() + u.Delta)
	return item
}
func (u Add) payloadSize() int { return 8 }

// ListAppend appends values to number-list attribute Name (the atomic
// list expansion primitive).
type ListAppend struct {
	Name string
	Vals []int64
}

// Apply implements Update.
func (u ListAppend) Apply(item Item) Item { return u.apply(item, nil) }

func (u ListAppend) apply(item Item, names *nameCopies) Item {
	v := item.add(u.Name, names)
	*v = NumList(concat(v.NL(), u.Vals)...)
	return item
}
func (u ListAppend) payloadSize() int { return 8 * len(u.Vals) }

// ListRemove removes all occurrences of the given values from number-list
// attribute Name (atomic list truncation).
type ListRemove struct {
	Name string
	Vals []int64
}

// Apply implements Update.
func (u ListRemove) Apply(item Item) Item {
	v := item.ptr(u.Name)
	if v == nil || v.Kind() != KindNumList {
		return item
	}
	var kept []int64
	for _, x := range v.NL() {
		if !slices.Contains(u.Vals, x) {
			kept = append(kept, x)
		}
	}
	*v = NumList(kept...)
	return item
}
func (u ListRemove) payloadSize() int { return 8 * len(u.Vals) }

// ListPopHead removes the first element of number-list attribute Name.
type ListPopHead struct{ Name string }

// Apply implements Update.
func (u ListPopHead) Apply(item Item) Item {
	v := item.ptr(u.Name)
	if v == nil || len(v.NL()) == 0 {
		return item
	}
	*v = NumList(v.NL()[1:]...) // the tail is shared, never written into
	return item
}
func (u ListPopHead) payloadSize() int { return 0 }

// StrListAppend appends strings to string-list attribute Name.
type StrListAppend struct {
	Name string
	Vals []string
}

// Apply implements Update.
func (u StrListAppend) Apply(item Item) Item { return u.apply(item, nil) }

func (u StrListAppend) apply(item Item, names *nameCopies) Item {
	v := item.add(u.Name, names)
	*v = StrList(concat(v.SL(), u.Vals)...)
	return item
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
func (u StrListRemove) Apply(item Item) Item {
	v := item.ptr(u.Name)
	if v == nil || v.Kind() != KindStrList {
		return item
	}
	var kept []string // sized at its first element: one allocation, none for an empty list
	for i, s := range v.SL() {
		if !slices.Contains(u.Vals, s) {
			if kept == nil {
				kept = make([]string, 0, len(v.SL())-i)
			}
			kept = append(kept, s)
		}
	}
	*v = StrList(kept...)
	return item
}
func (u StrListRemove) payloadSize() int { return 0 }

// Move appends string-list attribute From to string-list attribute To and
// removes From, in one action: the list moves whole, with whatever it holds
// when the update commits. A missing or empty From writes nothing. DynamoDB
// evaluates every operand of an update expression against the item as it
// was before the update, so it spells the move
//
//	SET #to = list_append(if_not_exists(#to, :empty), #from) REMOVE #from
//
// or, where To cannot exist yet, SET #to = #from REMOVE #from. It rejects an
// operand that names a missing attribute, so where From may be missing the
// operand is if_not_exists(#from, :empty), and DynamoDB stores an empty To
// where Move stores nothing.
type Move struct{ From, To string }

// Apply implements Update.
func (u Move) Apply(item Item) Item { return u.apply(item, nil) }

func (u Move) apply(item Item, names *nameCopies) Item {
	i := item.index(u.From)
	if i < 0 || len(item[i].V.SL()) == 0 {
		return item
	}
	moved := item[i].V.SL()
	item = slices.Delete(item, i, i+1)
	v := item.add(u.To, names)
	if to := v.SL(); len(to) > 0 {
		moved = concat(to, moved)
	}
	*v = StrList(moved...) // a new To shares From's list: values are immutable
	return item
}
func (u Move) payloadSize() int { return 0 }

// The table reaches the closed sets only through the three switches below.
// Each names every type by value, plus the pointer forms callers build
// (actions kept in reused memory: a commit's scratch in core, the leader's
// claim round), and has no default: a dynamic call anywhere in one would
// make every action and condition a caller passes escape to the heap.
// A form not listed panics: a caller that needs another pointer form adds
// it to the switches.
//
// No action stores memory it points to directly: the value a Set stores is
// a copy (Value.owned), and an attribute an action adds is named by the
// table's own copy of the name (Item.add). Escape analysis does not tell a
// struct's fields apart, nor one case of a switch from another, so a single
// action storing its Name would leak every action's slices to the heap —
// a StrListAppend's one-element list built at the call among them. What the
// table keeps of an action is only what its lists point to: the strings a
// StrListAppend adds.

// evalCond reports whether c holds on item.
func evalCond(c Cond, item Item, exists bool) bool {
	switch c := c.(type) {
	case Exists:
		return c.Eval(item, exists)
	case NotExists:
		return c.Eval(item, exists)
	case AttrNotExists:
		return c.Eval(item, exists)
	case Eq:
		return c.Eval(item, exists)
	case NumLt:
		return c.Eval(item, exists)
	case NumListHeadEq:
		return c.Eval(item, exists)
	case And:
		return c.Eval(item, exists)
	case Or:
		return c.Eval(item, exists)
	}
	panic("kv: condition of a form evalCond does not list")
}

// applyUpdate returns item with u applied; an attribute it adds takes its
// name from names (Item.add).
func applyUpdate(u Update, item Item, names *nameCopies) Item {
	switch u := u.(type) {
	case Set:
		return u.apply(item, names)
	case *Set:
		return u.apply(item, names)
	case Remove:
		return u.Apply(item)
	case *Remove:
		return u.Apply(item)
	case Add:
		return u.apply(item, names)
	case ListAppend:
		return u.apply(item, names)
	case *ListAppend:
		return u.apply(item, names)
	case ListRemove:
		return u.Apply(item)
	case ListPopHead:
		return u.Apply(item)
	case StrListAppend:
		return u.apply(item, names)
	case StrListRemove:
		return u.Apply(item)
	case Move:
		return u.apply(item, names)
	case *Move:
		return u.apply(item, names)
	}
	panic("kv: update of a form applyUpdate does not list")
}

// updateSize is u's payload size, which the write's latency and price
// count.
func updateSize(u Update) int {
	switch u := u.(type) {
	case Set:
		return u.payloadSize()
	case *Set:
		return u.payloadSize()
	case Remove:
		return u.payloadSize()
	case *Remove:
		return u.payloadSize()
	case Add:
		return u.payloadSize()
	case ListAppend:
		return u.payloadSize()
	case *ListAppend:
		return u.payloadSize()
	case ListRemove:
		return u.payloadSize()
	case ListPopHead:
		return u.payloadSize()
	case StrListAppend:
		return u.payloadSize()
	case StrListRemove:
		return u.payloadSize()
	case Move:
		return u.payloadSize()
	case *Move:
		return u.payloadSize()
	}
	panic("kv: update of a form updateSize does not list")
}

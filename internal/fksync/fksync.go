// Package fksync implements the paper's serverless synchronization
// primitives (Section 2.1, Section 3.3) on top of the key-value store's
// conditional update expressions: the timed lock (a lease that a crashed
// function cannot hold forever), the atomic counter, and the atomic list.
// Each operation is a single conditional write to a single item.
package fksync

import (
	"errors"
	"slices"
	"time"

	"faaskeeper/internal/cloud"
	"faaskeeper/internal/cloud/kv"
	"faaskeeper/internal/sim"
)

// LockAttr is the item attribute holding the lock timestamp.
const LockAttr = "lock"

// Lock errors.
var (
	ErrLockHeld = errors.New("fksync: lock held")
	ErrLockLost = errors.New("fksync: lock lost or expired")
)

// Lock is an acquired timed lock on one item.
type Lock struct {
	Key       string
	Timestamp int64 // virtual-time nanoseconds at acquisition
}

// free is the paper's lock condition: the lock is free when no timestamp
// is present or the existing one is older than expired. It and held return
// kv's own conditions by value and are inlined, so a condition passed
// straight to a kv.Table call stays on the caller's stack
// (TestLockCommitAllocations).
func free(expired int64) kv.Or {
	return kv.Or{kv.AttrNotExists{Name: LockAttr}, kv.NumLt{Name: LockAttr, V: expired}}
}

// held guards every mutation under the lock: the stored timestamp must
// still be ours, so a lock lost to expiry cannot overwrite newer state.
func (l Lock) held() kv.Eq { return kv.Eq{Name: LockAttr, V: kv.N(l.Timestamp)} }

// LockManager acquires and releases timed locks on a table's items.
type LockManager struct {
	tbl     *kv.Table
	env     *cloud.Env
	maxHold time.Duration
}

// NewLockManager creates a manager whose locks auto-expire after maxHold.
func NewLockManager(env *cloud.Env, tbl *kv.Table, maxHold time.Duration) *LockManager {
	if maxHold <= 0 {
		maxHold = 5 * time.Second
	}
	return &LockManager{tbl: tbl, env: env, maxHold: maxHold}
}

// unlock is the release action every commit appends. It is a package
// value because an action appended to a caller's list escapes to the heap,
// where one built in the list literal of a kv.Table call stays on the stack.
var unlock kv.Update = kv.Remove{Name: LockAttr}

// Acquire attempts to take the lock once. On success it returns the lock
// and the item's current state (the follower needs the node's old data to
// validate the operation) as a read-only view (kv.Table.Update): valid
// until the caller next blocks, so decode it first; the values in it stay
// valid forever. A held, unexpired lock yields ErrLockHeld.
func (m *LockManager) Acquire(ctx cloud.Ctx, key string) (Lock, kv.Item, error) {
	now := int64(m.env.K.Now())
	item, err := m.tbl.Update(ctx, key,
		[]kv.Update{kv.Set{Name: LockAttr, V: kv.N(now)}}, free(now-int64(m.maxHold)))
	if errors.Is(err, kv.ErrConditionFailed) {
		return Lock{}, nil, ErrLockHeld
	}
	if err != nil {
		return Lock{}, nil, err
	}
	return Lock{Key: key, Timestamp: now}, item, nil
}

// AcquireWait retries Acquire with linear backoff until it succeeds or
// attempts are exhausted.
func (m *LockManager) AcquireWait(ctx cloud.Ctx, key string, attempts int) (Lock, kv.Item, error) {
	if attempts <= 0 {
		attempts = 50
	}
	var lastErr error
	for i := 0; i < attempts; i++ {
		l, item, err := m.Acquire(ctx, key)
		if err == nil {
			return l, item, nil
		}
		lastErr = err
		if !errors.Is(err, ErrLockHeld) {
			return Lock{}, nil, err
		}
		m.env.K.Sleep(sim.Time(i+1) * 2 * sim.Ms(1))
	}
	return Lock{}, nil, lastErr
}

// Release drops the lock without modifying the item.
func (m *LockManager) Release(ctx cloud.Ctx, l Lock) error {
	_, err := m.tbl.Update(ctx, l.Key, []kv.Update{unlock}, l.held())
	if errors.Is(err, kv.ErrConditionFailed) {
		return ErrLockLost
	}
	return err
}

// CommitUnlock atomically applies updates and releases the lock in a
// single conditional write (step ④ of Algorithm 1). If the lease expired,
// nothing is written. The item is returned as a read-only view, under
// Acquire's rule: decode it before the next blocking call.
func (m *LockManager) CommitUnlock(ctx cloud.Ctx, l Lock, updates []kv.Update) (kv.Item, error) {
	var buf [12]kv.Update // a create's node item takes 10 actions (its group move among them) plus the release
	all := append(append(buf[:0], updates...), unlock)
	item, err := m.tbl.Update(ctx, l.Key, all, l.held())
	if errors.Is(err, kv.ErrConditionFailed) {
		return nil, ErrLockLost
	}
	return item, err
}

// TxPart is one item's contribution to a multi-node commit.
type TxPart struct {
	Lock    Lock
	Updates []kv.Update
	Delete  bool // delete the item instead of updating it
}

// CommitUnlockTx commits several locked items in one transaction that
// fails or succeeds atomically (creating a node also updates the locked
// parent, Section 3.1).
func (m *LockManager) CommitUnlockTx(ctx cloud.Ctx, parts []TxPart) error {
	ops := make([]kv.TxOp, 0, len(parts))
	for _, p := range parts {
		op := kv.TxOp{Key: p.Lock.Key, Cond: p.Lock.held(), Delete: p.Delete}
		if !p.Delete {
			op.Updates = make([]kv.Update, 0, len(p.Updates)+1)
			op.Updates = append(op.Updates, p.Updates...)
			op.Updates = append(op.Updates, unlock)
		}
		ops = append(ops, op)
	}
	err := m.tbl.Transact(ctx, ops)
	if errors.Is(err, kv.ErrConditionFailed) {
		return ErrLockLost
	}
	return err
}

// Counter is an atomic counter stored in a single item attribute.
type Counter struct {
	tbl  *kv.Table
	key  string
	attr string
}

// NewCounter binds a counter to tbl[key].attr.
func NewCounter(tbl *kv.Table, key, attr string) *Counter {
	return &Counter{tbl: tbl, key: key, attr: attr}
}

// Add atomically adds delta and returns the new value.
func (c *Counter) Add(ctx cloud.Ctx, delta int64) (int64, error) {
	item, err := c.tbl.Update(ctx, c.key, []kv.Update{kv.Add{Name: c.attr, Delta: delta}}, nil)
	if err != nil {
		return 0, err
	}
	return item.Get(c.attr).Num(), nil
}

// Get reads the current value (0 when unset).
func (c *Counter) Get(ctx cloud.Ctx, consistent bool) (int64, error) {
	item, ok := c.tbl.Get(ctx, c.key, consistent)
	if !ok {
		return 0, nil
	}
	return item.Get(c.attr).Num(), nil
}

// List is an atomic list of int64 stored in a single item attribute; it
// supports safe expansion and truncation (the epoch counter's backing
// primitive).
type List struct {
	tbl  *kv.Table
	key  string
	attr string
}

// NewList binds a list to tbl[key].attr.
func NewList(tbl *kv.Table, key, attr string) *List {
	return &List{tbl: tbl, key: key, attr: attr}
}

// Append atomically appends values and returns the new content.
func (l *List) Append(ctx cloud.Ctx, vals ...int64) ([]int64, error) {
	item, err := l.tbl.Update(ctx, l.key, []kv.Update{kv.ListAppend{Name: l.attr, Vals: vals}}, nil)
	if err != nil {
		return nil, err
	}
	return slices.Clone(item.Get(l.attr).NL()), nil // the item is a view of table storage
}

// Remove atomically removes all occurrences of the given values.
func (l *List) Remove(ctx cloud.Ctx, vals ...int64) ([]int64, error) {
	item, err := l.tbl.Update(ctx, l.key, []kv.Update{kv.ListRemove{Name: l.attr, Vals: vals}}, nil)
	if err != nil {
		return nil, err
	}
	return slices.Clone(item.Get(l.attr).NL()), nil
}

// Get reads the current content.
func (l *List) Get(ctx cloud.Ctx, consistent bool) ([]int64, error) {
	item, ok := l.tbl.Get(ctx, l.key, consistent)
	if !ok {
		return nil, nil
	}
	return item.Get(l.attr).NL(), nil
}

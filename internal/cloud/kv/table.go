package kv

import (
	"errors"
	"fmt"
	"sort"

	"faaskeeper/internal/cloud"
	"faaskeeper/internal/sim"
)

// Errors returned by table operations.
var (
	ErrConditionFailed = errors.New("kv: condition failed")
	ErrItemTooLarge    = errors.New("kv: item exceeds size limit")
	ErrNotFound        = errors.New("kv: item not found")
)

// Table is one simulated KV table. All methods must be called from inside
// sim processes: they sleep for the modelled operation latency and charge
// the environment's meter before touching state, so concurrent conditional
// updates contend exactly as they would against a real region.
type Table struct {
	env     *cloud.Env
	name    string
	costCat string
	items   map[string]*row
	keys    []string // sorted key index for deterministic scans
	dirty   bool

	stream *Stream
	seqNo  int64

	// Optional write-throughput model (Figure 6b): operations reserve
	// capacity slots; conditional updates consume more, which is what
	// caps locked updates at ~84% of plain-write throughput.
	writePerSec float64
	condCost    float64
	nextFree    sim.Time
}

type row struct {
	cur       Item
	prev      Item     // last overwritten version, for eventual reads
	writtenAt sim.Time // commit time of cur
}

// Stream is a DynamoDB-Streams-like change feed attached to a table.
type Stream struct {
	Records *sim.Queue[StreamRecord]
}

// StreamRecord describes one committed write.
type StreamRecord struct {
	SeqNo int64
	Key   string
	Item  Item // nil on delete
}

// NewTable creates an empty table in env.
func NewTable(env *cloud.Env, name string) *Table {
	return &Table{env: env, name: name, costCat: "kv", items: map[string]*row{}}
}

// Name returns the table name.
func (t *Table) Name() string { return t.name }

// SetCostCategory changes the meter category prefix (default "kv"), so
// deployments can separate system-store from user-store spending.
func (t *Table) SetCostCategory(cat string) { t.costCat = cat }

// SetWriteCapacity enables the write-throughput model: writes are admitted
// at up to opsPerSec, and conditional updates consume condCost capacity
// units each (1 = same as a plain write). Zero disables the limit.
func (t *Table) SetWriteCapacity(opsPerSec, condCost float64) {
	t.writePerSec = opsPerSec
	if condCost <= 0 {
		condCost = 1
	}
	t.condCost = condCost
}

// admitWrite queues the caller until table capacity is available and
// returns the queueing delay to add to the operation's latency.
func (t *Table) admitWrite(conditional bool) sim.Time {
	if t.writePerSec <= 0 {
		return 0
	}
	cost := 1.0
	if conditional {
		cost = t.condCost
	}
	return t.admitOp(cost)
}

func (t *Table) admitOp(cost float64) sim.Time {
	slot := sim.Time(cost / t.writePerSec * float64(sim.Ms(1000)))
	now := t.env.K.Now()
	start := t.nextFree
	if start < now {
		start = now
	}
	t.nextFree = start + slot
	return start - now
}

// EnableStream attaches a change feed to the table and returns it.
func (t *Table) EnableStream() *Stream {
	if t.stream == nil {
		t.stream = &Stream{Records: sim.NewQueue[StreamRecord](t.env.K)}
	}
	return t.stream
}

func (t *Table) profile() *cloud.Profile { return t.env.Profile }

// readLatency models a GetItem call for an item of size bytes. Reads share
// the table's capacity pool with writes when a limit is configured.
func (t *Table) readLatency(ctx cloud.Ctx, size int) sim.Time {
	p := t.profile()
	lat := t.env.OpTime(ctx, p.KVReadBase, p.KVReadPerKB, size)
	if t.writePerSec > 0 {
		lat += t.admitOp(1)
	}
	return lat
}

// writeLatency models a Put/Update call. Conditional or transactional
// updates pay the synchronization surcharge measured in Section 5.2.1; the
// latency grows with the *stored item's* size even when the change itself
// is small (Table 6a).
func (t *Table) writeLatency(ctx cloud.Ctx, itemSize, appendSize int, conditional bool) sim.Time {
	p := t.profile()
	base := t.admitWrite(conditional)
	base += t.env.OpTime(ctx, p.KVWriteBase, p.KVWritePerKB, itemSize)
	if appendSize > 0 {
		base += sim.Time(float64(p.KVListPerKB) * float64(appendSize) / 1024)
	}
	if conditional {
		if p.KVCondPenalty != nil {
			base += p.KVCondPenalty.Sample(t.env.K.Rand())
		} else if p.KVTxPenalty != nil {
			// Providers without conditional update expressions emulate them
			// with transactions (Datastore; Section 4.5).
			base += p.KVTxPenalty.Sample(t.env.K.Rand())
		}
	}
	return base
}

// Get is GetView plus a deep copy: the caller owns the returned item.
func (t *Table) Get(ctx cloud.Ctx, key string, consistent bool) (Item, bool) {
	it, ok := t.GetView(ctx, key, consistent)
	if !ok {
		return nil, false
	}
	return it.Clone(), true
}

// GetView reads the item without a defensive deep copy. With
// consistent=false the read is eventually consistent: a read racing a
// recent write may return the previous version (and is billed at half
// price on AWS). The returned item is a READ-ONLY view of table storage,
// valid until the caller's next yield point at the latest (a concurrent
// writer may commit a replacement; the view itself is never mutated in
// place — commits swap whole items). Callers must not modify the item or
// any slice it holds, and must copy whatever they retain or mutate. Hot
// read paths use it to skip cloning entire items — the paper's znode items
// carry the full node blob, so the clone dominated read-side allocation.
func (t *Table) GetView(ctx cloud.Ctx, key string, consistent bool) (Item, bool) {
	size := t.sizeOf(key)
	t.env.K.Sleep(t.readLatency(ctx, size))
	t.env.Charge(ctx, t.costCat+".read", t.profile().Pricing.KVReadCost(max(size, 1), consistent), 1)
	it := t.view(key, consistent) // state may have changed while we slept
	return it, it != nil
}

// GetViews is the batched read (DynamoDB's BatchGetItem): one round trip
// that fetches every key and takes as long as its slowest item, where a
// loop of GetView calls would take the sum. Each item is still billed as
// its own read, at GetView's price. out[i] receives keys[i]'s item under
// GetView's read-only-view contract, all taken at the same instant after
// the sleep, or nil when the key is missing; len(out) must be len(keys).
func (t *Table) GetViews(ctx cloud.Ctx, keys []string, consistent bool, out []Item) {
	var sizeBuf [8]int // enough for the leader's opening read without a heap slice
	sizes := sizeBuf[:0]
	var lat sim.Time
	for _, key := range keys {
		size := t.sizeOf(key)
		sizes = append(sizes, size)
		lat = max(lat, t.readLatency(ctx, size))
	}
	t.env.K.Sleep(lat)
	cat, p := t.costCat+".read", t.profile()
	for i, key := range keys {
		t.env.Charge(ctx, cat, p.Pricing.KVReadCost(max(sizes[i], 1), consistent), 1)
		out[i] = t.view(key, consistent)
	}
}

// sizeOf is the stored size of key's item, 0 when it is missing.
func (t *Table) sizeOf(key string) int {
	if r := t.items[key]; r != nil {
		return r.cur.Size()
	}
	return 0
}

// view returns key's item as a read sees it now, nil when it is missing:
// the current version, or — for an eventually consistent read racing a
// recent write — possibly the one before it.
func (t *Table) view(key string, consistent bool) Item {
	r := t.items[key]
	if r == nil {
		return nil
	}
	if !consistent && r.prev != nil {
		lag := t.profile().KVReplicaLag
		age := t.env.K.Now() - r.writtenAt
		if age < lag {
			// The replica lags behind with probability proportional to how
			// fresh the write is.
			pStale := 1 - float64(age)/float64(lag)
			if t.env.K.Rand().Float64() < pStale {
				return r.prev
			}
		}
	}
	return r.cur
}

// Put stores item under key if cond (when non-nil) holds.
func (t *Table) Put(ctx cloud.Ctx, key string, item Item, cond Cond) error {
	size := item.Size()
	if size > t.profile().KVMaxItemB {
		return fmt.Errorf("%w: %d > %d", ErrItemTooLarge, size, t.profile().KVMaxItemB)
	}
	t.env.K.Sleep(t.writeLatency(ctx, size, 0, cond != nil))
	t.env.Charge(ctx, t.costCat+".write", t.profile().Pricing.KVWriteCost(size), 1)
	old, exists := t.lookup(key)
	if cond != nil && !cond.Eval(old, exists) {
		return ErrConditionFailed
	}
	t.commit(key, storedCopy(item))
	return nil
}

// Update applies the update actions atomically if cond holds, creating the
// item when absent (upsert semantics). It returns the new item state.
func (t *Table) Update(ctx cloud.Ctx, key string, updates []Update, cond Cond) (Item, error) {
	old, exists := t.lookup(key)
	size := 0
	if exists {
		size = old.Size()
	}
	appendSize := 0
	for _, u := range updates {
		appendSize += u.payloadSize()
	}
	t.env.K.Sleep(t.writeLatency(ctx, max(size, appendSize), appendSize, cond != nil))
	t.env.Charge(ctx, t.costCat+".write", t.profile().Pricing.KVWriteCost(max(size, appendSize)), 1)

	old, exists = t.lookup(key) // re-evaluate after the latency
	if cond != nil && !cond.Eval(old, exists) {
		return nil, ErrConditionFailed
	}
	next := old.clone(len(updates))
	for _, u := range updates {
		u.Apply(&next)
	}
	if next.Size() > t.profile().KVMaxItemB {
		return nil, fmt.Errorf("%w: %d > %d", ErrItemTooLarge, next.Size(), t.profile().KVMaxItemB)
	}
	t.commit(key, next)
	return next.Clone(), nil
}

// Delete removes the item if cond holds. Deleting a missing item succeeds,
// as in DynamoDB, unless a condition requires existence.
func (t *Table) Delete(ctx cloud.Ctx, key string, cond Cond) error {
	old, exists := t.lookup(key)
	size := 0
	if exists {
		size = old.Size()
	}
	t.env.K.Sleep(t.writeLatency(ctx, size, 0, cond != nil))
	t.env.Charge(ctx, t.costCat+".write", t.profile().Pricing.KVWriteCost(max(size, 1)), 1)
	old, exists = t.lookup(key)
	if cond != nil && !cond.Eval(old, exists) {
		return ErrConditionFailed
	}
	if exists {
		delete(t.items, key)
		t.dirty = true
		t.emit(key, nil)
	}
	return nil
}

// TxOp is one leg of a multi-item transaction.
type TxOp struct {
	Key     string
	Updates []Update
	Cond    Cond
	Delete  bool
}

// Transact applies all ops atomically: every condition is checked against
// the pre-state and either all legs commit or none do. This is the
// transactional write FaaSKeeper uses for multi-node commits and the GCP
// port uses in place of conditional updates.
func (t *Table) Transact(ctx cloud.Ctx, ops []TxOp) error {
	size := 0
	for _, op := range ops {
		if it, ok := t.lookup(op.Key); ok {
			size += it.Size()
		}
		for _, u := range op.Updates {
			size += u.payloadSize()
		}
	}
	lat := t.writeLatency(ctx, size, 0, true)
	if p := t.profile().KVTxPenalty; p != nil {
		lat += p.Sample(t.env.K.Rand())
	}
	t.env.K.Sleep(lat)
	t.env.Charge(ctx, t.costCat+".write", t.profile().Pricing.KVWriteCost(max(size, 1))*float64(len(ops)), int64(len(ops)))

	// Check all conditions against the post-latency state.
	for _, op := range ops {
		old, exists := t.lookup(op.Key)
		if op.Cond != nil && !op.Cond.Eval(old, exists) {
			return ErrConditionFailed
		}
	}
	for _, op := range ops {
		if op.Delete {
			if _, ok := t.items[op.Key]; ok {
				delete(t.items, op.Key)
				t.dirty = true
				t.emit(op.Key, nil)
			}
			continue
		}
		old, _ := t.lookup(op.Key)
		next := old.clone(len(op.Updates))
		for _, u := range op.Updates {
			u.Apply(&next)
		}
		t.commit(op.Key, next)
	}
	return nil
}

// KeyItem pairs a key with its item for scans.
type KeyItem struct {
	Key  string
	Item Item
}

// Scan returns all items in key order, billing reads for the full table
// (the heartbeat function's session scan, Section 5.3.3).
func (t *Table) Scan(ctx cloud.Ctx) []KeyItem {
	total := 0
	for _, r := range t.items {
		total += r.cur.Size()
	}
	t.env.K.Sleep(t.readLatency(ctx, total))
	t.env.Charge(ctx, t.costCat+".read", t.profile().Pricing.KVReadCost(max(total, 1), true), 1)
	out := make([]KeyItem, 0, len(t.items))
	for _, k := range t.sortedKeys() {
		out = append(out, KeyItem{Key: k, Item: t.items[k].cur.Clone()})
	}
	return out
}

// Len returns the number of stored items (no latency; test helper).
func (t *Table) Len() int { return len(t.items) }

// TotalSize returns the summed item sizes in bytes (no latency).
func (t *Table) TotalSize() int {
	n := 0
	for _, r := range t.items {
		n += r.cur.Size()
	}
	return n
}

// SeedPut stores an item without latency or billing. Deployments use it to
// bootstrap state (the tree root, for example) before measurement starts.
func (t *Table) SeedPut(key string, item Item) {
	t.commit(key, storedCopy(item))
}

// Peek returns the stored item without latency or billing; tests and
// invariant checkers use it to inspect state without perturbing time.
func (t *Table) Peek(key string) (Item, bool) {
	r, ok := t.items[key]
	if !ok {
		return nil, false
	}
	return r.cur.Clone(), true
}

// storedCopy is the deep copy Put and SeedPut keep of a caller-built item.
// It goes through Set, so a literal that repeats a name stores one
// attribute (the last value wins, as in a map literal).
func storedCopy(item Item) Item {
	out := make(Item, 0, len(item))
	for _, a := range item {
		out.Set(a.Name, a.V.Clone())
	}
	return out
}

func (t *Table) lookup(key string) (Item, bool) {
	r, ok := t.items[key]
	if !ok {
		return nil, false
	}
	return r.cur, true
}

func (t *Table) commit(key string, next Item) {
	r, ok := t.items[key]
	if !ok {
		r = &row{}
		t.items[key] = r
		t.dirty = true
	}
	r.prev = r.cur
	r.cur = next
	r.writtenAt = t.env.K.Now()
	t.emit(key, next)
}

func (t *Table) emit(key string, item Item) {
	if t.stream == nil {
		return
	}
	t.seqNo++
	rec := StreamRecord{SeqNo: t.seqNo, Key: key}
	if item != nil {
		rec.Item = item.Clone()
	}
	t.stream.Records.Push(rec)
}

func (t *Table) sortedKeys() []string {
	if t.dirty || len(t.keys) != len(t.items) {
		t.keys = t.keys[:0]
		for k := range t.items {
			t.keys = append(t.keys, k)
		}
		sort.Strings(t.keys)
		t.dirty = false
	}
	return t.keys
}

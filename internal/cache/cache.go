package cache

import (
	"slices"
	"strings"

	"faaskeeper/internal/cloud"
	"faaskeeper/internal/sim"
)

// Invalidation is the record the leader publishes to the regional cache
// before a fenced user-store op — a delete, or any object of an atomic
// batch, which no install can follow object by object: the path it is
// about to overwrite or delete and the commit's transaction id, which
// becomes the path's floor.
type Invalidation struct {
	Path  string
	Mzxid int64
}

// Install is one object the leader just wrote to the region's user store,
// sent before its next store op starts: the blob the store write used and
// its freshness value (the node's mzxid, raised to its pzxid — the value a
// reader's fill would carry). Until it lands the path's old entry stays
// served, so the cache lags the store by at most the one object in flight.
type Install struct {
	Path  string
	Blob  []byte
	Mzxid int64
}

// Stats counts one regional cache's traffic.
type Stats struct {
	Hits             int64
	Misses           int64
	Fills            int64
	RejectedFills    int64
	Installs         int64
	RejectedInstalls int64
	Invalidations    int64
	Losses           int64
}

// Regional is the shared cache node of one region: an in-memory store on a
// provisioned VM (the cloud profile's mem-store latencies, billed hourly
// rather than per operation) that fronts the region's user store. All
// consistency decisions stay with the client library — the cache only
// promises that an entry's (blob, mzxid) pair is something the user store
// held at some point, whether a reader filled it after a store read or the
// leader installed it after its store write, that no entry survives its
// invalidation, and that once an install or an invalidation landed no
// older value of its path is admitted again.
type Regional struct {
	env    *cloud.Env
	region cloud.Region
	lru    *LRU
	// floors holds each path's floor, the watermark an invalidation and an
	// install raise: fills below it are rejected, so a read that fetched
	// the old value from the store just before the overwrite can never
	// resurrect it after the invalidation or the install, even once the
	// entry is evicted. Each floor sits behind a pointer, so that raising
	// it never assigns the map again: an assignment stores its key, and an
	// install's path views the leader's queue message (setFloor).
	floors map[string]*int64
	// floorCap bounds the floors map: paths are written forever but
	// watermarks must not accumulate forever (the tombstone-GC gap).
	// On overflow the older half folds into globalFloor — see
	// compactFloors.
	floorCap    int
	globalFloor int64
	// inc is the node's incarnation, bumped by Lose. A fill carries the
	// incarnation of the miss that caused it (Probe, Refill), and admit
	// rejects one from an older incarnation.
	inc   uint64
	stats Stats

	// vmAccrual amortizes the cache VM's hourly price over the metered
	// operations (cost accounting opt-in): each op is charged the VM time
	// elapsed since the previous billed op, so the summed "cache.vm"
	// charges equal the VM's elapsed wall-clock cost while attribution
	// follows whoever actually used the node. Off by default — the meter
	// then matches the paper's per-request figures, which price the cache
	// VM separately as a provisioned daily cost.
	vmAccrual    bool
	vmLastBilled sim.Time
}

// defaultFloorCap keeps the watermark map far above any working set the
// experiments sweep while still bounding a long-running deployment.
const defaultFloorCap = 64 << 10

// NewRegional provisions a regional cache node with the given byte
// capacity (<= 0 selects 64 MB).
func NewRegional(env *cloud.Env, region cloud.Region, capacityB int) *Regional {
	if capacityB <= 0 {
		capacityB = 64 << 20
	}
	return &Regional{
		env:      env,
		region:   region,
		lru:      NewLRU(capacityB),
		floors:   map[string]*int64{},
		floorCap: defaultFloorCap,
	}
}

// Floor returns a path's effective invalidation watermark: its own floor,
// or the global floor it may have been folded into.
func (r *Regional) Floor(path string) int64 {
	if f, ok := r.floors[path]; ok {
		return *f
	}
	return r.globalFloor
}

// compactFloors folds the older half of the per-path watermarks (by
// mzxid) into globalFloor. Correctness is preserved conservatively: a
// path without its own floor is fenced at the global one, so a stale fill
// can never slip under a folded watermark — cold paths may over-miss
// until a write newer than the fold point, they can never go stale.
func (r *Regional) compactFloors() {
	ms := make([]int64, 0, len(r.floors))
	for _, f := range r.floors {
		ms = append(ms, *f)
	}
	slices.Sort(ms)
	cut := ms[len(ms)/2]
	for p, f := range r.floors {
		if *f <= cut {
			delete(r.floors, p)
		}
	}
	if cut > r.globalFloor {
		r.globalFloor = cut
	}
}

// Region returns the cache node's region.
func (r *Regional) Region() cloud.Region { return r.region }

// EnableVMAccrual turns on per-hit amortization of the cache VM's hourly
// price (see the vmAccrual field). Deployments call it when cost
// accounting is on.
func (r *Regional) EnableVMAccrual() {
	r.vmAccrual = true
	r.vmLastBilled = r.env.K.Now()
}

// chargeOp meters one cache operation (the op itself is free — the VM is
// billed by the hour) and, with accrual on, charges the VM time elapsed
// since the previous billed op so provisioned dollars follow usage.
func (r *Regional) chargeOp(ctx cloud.Ctx, category string) {
	r.env.Charge(ctx, category, 0, 1)
	if !r.vmAccrual {
		return
	}
	now := r.env.K.Now()
	if elapsed := now - r.vmLastBilled; elapsed > 0 {
		r.vmLastBilled = now
		usd := r.env.Profile.Pricing.CacheVMHourly * elapsed.Hours()
		r.env.Charge(ctx, "cache.vm", usd, 1)
	}
}

// lat sleeps one cache-node operation: the mem-store base plus the
// size-proportional transfer term, exactly like the Redis-backed user
// store the paper measures.
func (r *Regional) lat(ctx cloud.Ctx, base sim.Dist, perKB sim.Time, size int) {
	r.env.K.Sleep(r.env.OpTime(ctx, base, perKB, size))
}

// Probe looks path up in the cache, paying the mem-store read round trip
// whether it hits or misses. It returns the cached blob and its mzxid, and
// the node's incarnation, which a refill of what the caller then reads from
// the store carries (Refill); the caller decides whether its session guards
// allow serving a hit. The probe executes server-side after the
// request-travel delay, so the entry (and the size driving the transfer
// time) is whatever the cache holds at that instant — the same
// serialization point the mem-backed user store uses.
func (r *Regional) Probe(ctx cloud.Ctx, path string) (blob []byte, mzxid int64, inc uint64, ok bool) {
	p := r.env.Profile
	r.lat(ctx, p.MemReadBase, 0, 0)
	e, ok := r.lru.Get(path)
	inc = r.inc
	r.chargeOp(ctx, "cache.read")
	if !ok {
		r.stats.Misses++
		return nil, 0, inc, false
	}
	r.lat(ctx, sim.Const(0), p.MemReadPerKB, len(e.Blob))
	r.stats.Hits++
	return e.Blob, e.Mzxid, inc, true
}

// Lookup is Probe without the incarnation.
func (r *Regional) Lookup(ctx cloud.Ctx, path string) ([]byte, int64, bool) {
	blob, mzxid, _, ok := r.Probe(ctx, path)
	return blob, mzxid, ok
}

// Refill stores a blob a client fetched from the user store after a probe
// of incarnation inc missed. The fill is rejected when it comes from an
// older incarnation, or when the path's invalidation floor (or an already
// newer entry) proves the blob stale — the lost race between a read of the
// old value and the overwrite's invalidation or install. Reports whether
// the entry was stored.
func (r *Regional) Refill(ctx cloud.Ctx, path string, blob []byte, mzxid int64, inc uint64) bool {
	p := r.env.Profile
	r.lat(ctx, p.MemWriteBase, p.MemWritePerKB, len(blob))
	r.chargeOp(ctx, "cache.write")
	if !r.admit(path, blob, mzxid, inc) {
		r.stats.RejectedFills++
		return false
	}
	r.stats.Fills++
	return true
}

// Fill is Refill at the node's current incarnation, for a caller that
// probed nothing.
func (r *Regional) Fill(ctx cloud.Ctx, path string, blob []byte, mzxid int64) bool {
	return r.Refill(ctx, path, blob, mzxid, r.inc)
}

// InstallBatch stores the objects one store op of a flush leg just wrote to
// the region's user store — one object, or an atomic batch — in one
// cache-node round trip whose transfer term covers every blob. Each object
// raises its path's floor to its freshness, then passes Fill's admission
// rule: an install that lands after a later write's invalidation or install
// is rejected, and a reader's fill of the value it replaced, still in
// flight, is rejected after it even if the entry was evicted meanwhile.
func (r *Regional) InstallBatch(ctx cloud.Ctx, objs []Install) {
	if len(objs) == 0 {
		return
	}
	p := r.env.Profile
	size := 0
	for _, o := range objs {
		size += len(o.Blob)
	}
	r.lat(ctx, p.MemWriteBase, p.MemWritePerKB, size)
	r.chargeOp(ctx, "cache.write")
	for _, o := range objs {
		r.raise(o.Path, o.Mzxid)
		if r.admit(o.Path, o.Blob, o.Mzxid, r.inc) {
			r.stats.Installs++
		} else {
			r.stats.RejectedInstalls++
		}
	}
}

// admit is the one admission rule for a (blob, mzxid) pair the user store
// held, read by a reader whose miss was in incarnation inc (an install's is
// the current one): it is stored unless it comes from an older incarnation,
// or the path's invalidation floor or a newer resident entry proves it
// stale. Reports whether it was stored.
func (r *Regional) admit(path string, blob []byte, mzxid int64, inc uint64) bool {
	if inc < r.inc || mzxid < r.Floor(path) {
		return false
	}
	if cur, ok := r.lru.Peek(path); ok && cur.Mzxid > mzxid {
		return false
	}
	r.lru.Put(path, Entry{Blob: blob, Mzxid: mzxid})
	return true
}

// InvalidateBatch applies one leader-published invalidation record — one
// entry per path the distributor's flush fences: one cache-node round trip
// whose transfer term covers all entries, then for each path raise the
// floor to the entry's mzxid and drop any cached entry below it. A fenced
// path other than the shared root is one shard's, so its records arrive in
// that shard's txid order and the floor lands exactly on each entry's
// mzxid: post-write fills pass, and a fill of the value the write replaced
// is rejected. The shared root (fenced only in an atomic batch) is never
// installed or read through the cache, so its floor orders nothing.
func (r *Regional) InvalidateBatch(ctx cloud.Ctx, invs []Invalidation) {
	if len(invs) == 0 {
		return
	}
	p := r.env.Profile
	size := 0
	for _, inv := range invs {
		size += invSize(inv)
	}
	r.lat(ctx, p.MemWriteBase, p.MemWritePerKB, size)
	r.chargeOp(ctx, "cache.write")
	for _, inv := range invs {
		r.apply(inv)
	}
}

// apply raises one record's floor and drops the fenced entry (the
// latency and metering were already paid by the caller).
func (r *Regional) apply(inv Invalidation) {
	r.stats.Invalidations++
	newFloor := max(r.Floor(inv.Path), inv.Mzxid)
	r.setFloor(inv.Path, newFloor)
	if cur, ok := r.lru.Peek(inv.Path); ok && cur.Mzxid < newFloor {
		r.lru.Remove(inv.Path)
	}
}

// raise lifts a path's floor to an installed freshness value. The installed
// value itself stays admissible.
func (r *Regional) raise(path string, mzxid int64) {
	if mzxid > r.Floor(path) {
		r.setFloor(path, mzxid)
	}
}

// setFloor stores a path's floor, compacting the map on overflow. A new
// path is stored as a clone, which pins no message.
func (r *Regional) setFloor(path string, mzxid int64) {
	if p, ok := r.floors[path]; ok {
		*p = mzxid
		return
	}
	v := mzxid // a parameter whose address escapes is allocated on every call
	r.floors[strings.Clone(path)] = &v
	if len(r.floors) > r.floorCap {
		r.compactFloors()
	}
}

// Lose simulates the cache node's process dying and restarting empty:
// cached entries, per-path invalidation floors, and the global fold floor
// are all gone, as they would be for any in-memory node, and the node
// starts its next incarnation. Every entry the restarted node admits is
// still a (blob, mzxid) pair the user store held, and none is older than
// what the store held when the node restarted: an install comes from the
// leader's store write, and a fill is admitted only if the miss that caused
// it happened in this incarnation. That miss preceded the reader's store
// read, so the store read came after the restart and saw every value whose
// install landed before it; the install of any newer value that landed
// since raised the path's floor in this incarnation. So a loss costs misses,
// never staleness: no TTL bounds what the node serves. The chaos harness
// calls this to verify exactly that argument.
func (r *Regional) Lose() {
	r.lru = NewLRU(r.lru.CapacityB())
	r.floors = map[string]*int64{}
	r.globalFloor = 0
	r.inc++
	r.stats.Losses++
}

// Stats returns a snapshot of the traffic counters.
func (r *Regional) Stats() Stats { return r.stats }

// Bytes returns the cached payload bytes (capacity accounting).
func (r *Regional) Bytes() int { return r.lru.Bytes() }

// Len returns the number of cached entries.
func (r *Regional) Len() int { return r.lru.Len() }

// Evictions returns the LRU's capacity-pressure eviction count.
func (r *Regional) Evictions() int64 { return r.lru.Evictions() }

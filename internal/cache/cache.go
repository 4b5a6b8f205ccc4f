package cache

import (
	"slices"

	"faaskeeper/internal/cloud"
	"faaskeeper/internal/obs"
	"faaskeeper/internal/sim"
)

// Invalidation is the record the leader publishes to the regional cache on
// every user-store write: the path it is about to overwrite, the commit's
// transaction id, and the union epoch stamp (the in-flight watch ids across
// all shards) the new value will carry. The epoch union is retained with
// the path's floor so a future stamp-carrying upgrade — or a test — can
// reconstruct the exact invalidation order the cache observed. On a
// dynamic-sharding deployment the record additionally carries the shard-map
// epoch the publishing leader routed under (0 otherwise), so the
// invalidation order remains attributable across live reshards.
type Invalidation struct {
	Path     string
	Mzxid    int64
	Epoch    []int64
	MapEpoch int64
}

// floor is the per-path invalidation watermark: fills below it are
// rejected, so a read that fetched the old value from the store just
// before the overwrite can never resurrect it after the invalidation.
type floor struct {
	mzxid int64
	epoch []int64
}

// Stats counts one regional cache's traffic.
type Stats struct {
	Hits          int64
	Misses        int64
	Fills         int64
	RejectedFills int64
	Invalidations int64
	Losses        int64
}

// Publish mirrors the counters into a metrics registry as gauges keyed
// by the cache node's region — the snapshot the telemetry exporters dump
// alongside the pipeline's own instruments.
func (s Stats) Publish(reg *obs.Registry, region string) {
	for _, g := range []struct {
		name string
		v    int64
	}{
		{"hits", s.Hits},
		{"misses", s.Misses},
		{"fills", s.Fills},
		{"rejected_fills", s.RejectedFills},
		{"invalidations", s.Invalidations},
	} {
		reg.SetGauge(obs.Key{Component: "cache", Name: g.name, Region: region}, g.v)
	}
}

// Regional is the shared cache node of one region: an in-memory store on a
// provisioned VM (the cloud profile's mem-store latencies, billed hourly
// rather than per operation) that fronts the region's user store. All
// consistency decisions stay with the client library — the cache only
// promises that an entry's (blob, mzxid) pair is something the user store
// returned at some point and that no entry survives its invalidation.
type Regional struct {
	env    *cloud.Env
	region cloud.Region
	lru    *LRU
	floors map[string]floor
	// floorCap bounds the floors map: paths are written forever but
	// watermarks must not accumulate forever (the tombstone-GC gap).
	// On overflow the older half folds into globalFloor — see
	// compactFloors.
	floorCap    int
	globalFloor int64
	stats       Stats

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
		floors:   map[string]floor{},
		floorCap: defaultFloorCap,
	}
}

// floorOf returns a path's effective invalidation watermark: its own
// floor, or the global floor it may have been folded into.
func (r *Regional) floorOf(path string) int64 {
	if f, ok := r.floors[path]; ok {
		return f.mzxid
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
		ms = append(ms, f.mzxid)
	}
	slices.Sort(ms)
	cut := ms[len(ms)/2]
	for p, f := range r.floors {
		if f.mzxid <= cut {
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

// Lookup probes the cache for path, paying the mem-store read round trip
// whether it hits or misses. It returns the cached blob and its mzxid; the
// caller decides whether its session guards allow serving it. The probe
// executes server-side after the request-travel delay, so the entry (and
// the size driving the transfer time) is whatever the cache holds at that
// instant — the same serialization point the mem-backed user store uses.
func (r *Regional) Lookup(ctx cloud.Ctx, path string) ([]byte, int64, bool) {
	p := r.env.Profile
	r.lat(ctx, p.MemReadBase, 0, 0)
	e, ok := r.lru.Get(path)
	r.chargeOp(ctx, "cache.read")
	if !ok {
		r.stats.Misses++
		return nil, 0, false
	}
	r.lat(ctx, sim.Const(0), p.MemReadPerKB, len(e.Blob))
	r.stats.Hits++
	return e.Blob, e.Mzxid, true
}

// Fill stores a blob a client fetched from the user store. The fill is
// rejected when the path's invalidation floor (or an already newer entry)
// proves the blob stale — the lost race between a read of the old value
// and the overwrite's invalidation. Reports whether the entry was stored.
func (r *Regional) Fill(ctx cloud.Ctx, path string, blob []byte, mzxid int64) bool {
	p := r.env.Profile
	r.lat(ctx, p.MemWriteBase, p.MemWritePerKB, len(blob))
	r.chargeOp(ctx, "cache.write")
	if mzxid < r.floorOf(path) {
		r.stats.RejectedFills++
		return false
	}
	if cur, ok := r.lru.Peek(path); ok && cur.Mzxid > mzxid {
		r.stats.RejectedFills++
		return false
	}
	r.lru.Put(path, Entry{Blob: blob, Mzxid: mzxid, FilledAt: r.env.K.Now()})
	r.stats.Fills++
	return true
}

// InvalidateBatch applies one leader-published invalidation record — one
// entry per path the distributor's flush touches: one cache-node round
// trip whose transfer term covers all entries, then for each path
// STRICTLY raise the floor — to the entry's mzxid, but always past the
// previous floor — and drop any cached entry below it. Within a shard
// records arrive in txid order, so the floor lands exactly on each
// entry's mzxid and post-write fills pass. The strict bump matters for
// the shared root, the one path written by several shards: its rebuilds
// are serialized by the root lock but may carry out-of-order txids, and
// the freshness value (pzxid only rises) cannot distinguish two
// successive root contents when the later rebuild applies the lower txid.
// Bumping past the old floor fences both the resident copy and any
// in-flight fill of the pre-rebuild value — at worst the root over-misses
// until its next higher-txid change, never serves a superseded child
// list.
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
	newFloor := r.floorOf(inv.Path) + 1
	if inv.Mzxid > newFloor {
		newFloor = inv.Mzxid
	}
	r.floors[inv.Path] = floor{mzxid: newFloor, epoch: append([]int64(nil), inv.Epoch...)}
	if cur, ok := r.lru.Peek(inv.Path); ok && cur.Mzxid < newFloor {
		r.lru.Remove(inv.Path)
	}
	if len(r.floors) > r.floorCap {
		r.compactFloors()
	}
}

// Floor returns the path's effective invalidation watermark and the epoch
// union of the record that set it (empty epoch when the watermark is the
// global fold floor or the path was never invalidated).
func (r *Regional) Floor(path string) (int64, []int64) {
	if f, ok := r.floors[path]; ok {
		return f.mzxid, f.epoch
	}
	return r.globalFloor, nil
}

// WarmEntry is one prefetched entry of a connect-time warm-up.
type WarmEntry struct {
	Path  string
	Entry Entry
}

// WarmupPaths is the watch-set warm-up: a reconnecting session prefetches
// exactly the paths its durable persistent-watch registrations name into
// its client cache. The whole prefetch pays one read round trip whose
// transfer term covers all returned blobs (a single pipelined MGET, not
// one lookup per path), so warming K paths costs far less than K cold
// first reads; paths the node does not hold are simply absent from the
// result.
func (r *Regional) WarmupPaths(ctx cloud.Ctx, paths []string) []WarmEntry {
	p := r.env.Profile
	r.lat(ctx, p.MemReadBase, 0, 0)
	out := make([]WarmEntry, 0, len(paths))
	size := 0
	for _, path := range paths {
		e, ok := r.lru.Get(path)
		if !ok {
			continue
		}
		out = append(out, WarmEntry{Path: path, Entry: e})
		size += len(e.Blob)
	}
	if size > 0 {
		r.lat(ctx, sim.Const(0), p.MemReadPerKB, size)
	}
	r.chargeOp(ctx, "cache.read")
	return out
}

// Lose simulates the cache node's process dying and restarting empty:
// cached entries, per-path invalidation floors, and the global fold floor
// are all gone, as they would be for any in-memory node. Safety survives
// the loss because every consistency decision lives with the clients
// (per-path lastSeen floors, per-shard MRDs, the session sysFloor) and
// every entry the rebuilt node will ever hold is still a genuine
// (blob, mzxid) pair the user store returned — at worst a fresh session
// reads older-but-real state, the staleness ZooKeeper's model already
// permits and the client TTL already bounds. The chaos harness calls this
// to verify exactly that argument.
func (r *Regional) Lose() {
	r.lru = NewLRU(r.lru.CapacityB())
	r.floors = map[string]floor{}
	r.globalFloor = 0
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

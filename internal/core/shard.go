package core

import (
	"fmt"

	"faaskeeper/internal/cloud"
	"faaskeeper/internal/shardmap"
	"faaskeeper/internal/sim"
	"faaskeeper/internal/znode"
)

// The sharded write path partitions the leader pipeline by znode subtree:
// instead of one global ordered queue feeding one serialized leader
// instance, the deployment provisions WriteShards queues, each with its own
// single-concurrency leader trigger and its own epoch counters. Requests
// are routed by the top-level path segment, so a parent and all of its
// descendants always share a shard and the per-shard total order is enough
// for ZooKeeper's node-local invariants (sequential-node counters,
// not-empty checks, per-node mzxid monotonicity). Only the tree root is
// shared between shards; its user-store read-modify-write cycles are
// serialized by a system-store timed lock (rootUpdateLockKey), and
// session deregistration uses a system-store barrier item so the ack
// orders behind ephemeral deletions on every shard. With WriteShards = 1
// (the default) the pipeline collapses to the paper's single
// totally-ordered queue.
//
// With Config.DynamicShards the fixed mod-N route becomes the starting
// epoch of a durable routing table (package shardmap) that can be
// resharded live — consistent-hash slot moves to grow or shrink the queue
// count, and depth-2 sub-splits of a hot subtree — via the reshard
// protocol in reshard.go. Routing decisions then come from the map, txids
// interleave on the fixed shardmap.Stride so they stay decodable across
// epochs, and every follower commit pins the routed shard's map
// generation (dynGuard), rejecting writes routed with a stale map exactly
// like the Z4 epoch-stamp gate rejects stale reads.

// ShardOf maps a znode path to its write shard among n shards: the FNV
// hash of the top-level path segment modulo n. The root maps to shard 0.
// The client library and the follower compute it independently, like
// WatchID, so routing never needs a storage round trip. This is also
// epoch 0 of every dynamic shard map.
func ShardOf(path string, n int) int { return shardmap.DefaultShard(path, n) }

// shardTxid interleaves per-shard queue sequence numbers into globally
// unique transaction ids: txid = seqNo*n + shard. Within a shard txids
// stay strictly increasing (the property every per-node invariant relies
// on), and with n = 1 the txid is exactly the queue sequence number, as in
// the unsharded paper design. Dynamic deployments interleave on the fixed
// shardmap.Stride instead (see dynShards).
func shardTxid(seqNo int64, shard, n int) int64 {
	return seqNo*int64(n) + int64(shard)
}

// leaderQueueName names a shard's ordered queue; the single-shard
// deployment keeps the paper's original "leader" queue name.
func leaderQueueName(shard, n int) string {
	if n == 1 {
		return "leader"
	}
	return fmt.Sprintf("leader-%d", shard)
}

// dynShards is the dynamic-sharding state of a deployment (nil when
// Config.DynamicShards is off, keeping every static code path — and the
// golden trace — untouched). cur is the warm-sandbox cached view of the
// durable map, the same trust model as the follower's lastSeq cache: it
// may lag the store, and the commit-time generation guard is what makes a
// stale view safe.
type dynShards struct {
	store *shardmap.Store
	cur   *shardmap.Map
}

// Dynamic reports whether the deployment routes through a live shard map.
func (d *Deployment) Dynamic() bool { return d.dyn != nil }

// mapView returns the warm cached map. Callers treat it as possibly
// stale: routing mistakes are caught by the commit generation guard.
func (d *Deployment) mapView() *shardmap.Map { return d.dyn.cur }

// refreshMap reloads the cached view with a strongly consistent read.
func (d *Deployment) refreshMap(ctx cloud.Ctx) *shardmap.Map {
	if m, err := d.dyn.store.Load(ctx); err == nil {
		d.dyn.cur = m
	}
	return d.dyn.cur
}

// LoadShardMap reads the current durable map (client libraries and tests;
// nil when the deployment is static).
func (d *Deployment) LoadShardMap(ctx cloud.Ctx) *shardmap.Map {
	if d.dyn == nil {
		return nil
	}
	m, err := d.dyn.store.Load(ctx)
	if err != nil {
		return d.dyn.cur
	}
	return m
}

// RouteShard returns the shard currently owning a path's writes.
func (d *Deployment) RouteShard(path string) int {
	if d.dyn != nil {
		return d.mapView().ShardFor(path)
	}
	return ShardOf(path, d.NumShards())
}

// routeFn returns a routing snapshot plus the map view it came from (nil
// on static deployments). A multi-op transaction resolves every path
// against one snapshot, so its shard groups are internally consistent even
// if the cached view refreshes mid-plan; the commit-time generation guard
// rejects the whole plan if the snapshot went stale.
func (d *Deployment) routeFn() (func(string) int, *shardmap.Map) {
	if d.dyn != nil {
		m := d.mapView()
		return m.ShardFor, m
	}
	n := d.NumShards()
	return func(p string) int { return ShardOf(p, n) }, nil
}

// isSharedPath reports whether the path's user-store object is rebuilt by
// more than one shard leader and therefore needs the cross-shard
// read-modify-write lock: the tree root of a multi-shard deployment, plus
// the root node of any split subtree on a dynamic one.
func (d *Deployment) isSharedPath(path string) bool {
	if d.dyn != nil {
		return d.mapView().Shared(path)
	}
	return d.NumShards() > 1 && path == znode.Root
}

// sharedLockKey names the timed lock serializing a shared path's
// user-store read-modify-write cycles. The tree root keeps the original
// key (the static pipeline's behavior is pinned by the golden trace).
func sharedLockKey(path string) string {
	if path == znode.Root {
		return rootUpdateLockKey
	}
	return rootUpdateLockKey + ":" + path
}

// awaitRoutable blocks while the path is gated by an in-flight migration:
// the quiesce phase of the live reshard. Only migrating prefixes wait;
// every other path routes immediately.
func (d *Deployment) awaitRoutable(ctx cloud.Ctx, path string) {
	if d.dyn == nil {
		return
	}
	if !d.mapView().Blocked(path) {
		return
	}
	for attempt := 0; ; attempt++ {
		if !d.refreshMap(ctx).Blocked(path) {
			return
		}
		d.K.Sleep(sim.Time(attempt+1) * 2 * sim.Ms(1))
	}
}

// --- dynamic wire riders ---
//
// Dynamic-mode messages must carry the routing generation and the shard's
// txid base. Non-deregistration messages never use Fanout/DeregID, so the
// dynamic pipeline rides them instead of growing every deployment's
// leaderMsg encoding (ROADMAP follow-up: first-class fields).

// dynStamp stores the routed shard's generation and txid base on a
// non-deregistration leader message.
func dynStamp(msg *leaderMsg, m *shardmap.Map) {
	if msg.Op == OpDeregister {
		return
	}
	msg.DeregID = m.GenOf(msg.Shard)
	msg.Fanout = int(m.SeqBase[msg.Shard])
}

// dynGen reads the stamped routing generation.
func dynGen(msg leaderMsg) int64 { return msg.DeregID }

// dynBase reads the stamped txid base.
func dynBase(msg leaderMsg) int64 { return int64(msg.Fanout) }

// msgTxid derives a leader message's transaction id from its queue
// sequence number: the static interleave, or the stride interleave with
// the stamped base on a dynamic deployment (the follower computed exactly
// the same value when it committed, so both sides agree without a map
// read).
func (d *Deployment) msgTxid(seqNo int64, msg leaderMsg) int64 {
	if d.dyn == nil {
		return shardTxid(seqNo, msg.Shard, d.NumShards())
	}
	if msg.Op == OpDeregister {
		return seqNo*shardmap.Stride + int64(msg.Shard)
	}
	return (seqNo+dynBase(msg))*shardmap.Stride + int64(msg.Shard)
}

package core

import (
	"fmt"

	"faaskeeper/internal/shardmap"
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
// totally-ordered queue. The route is fixed at deploy time (d.route):
// changing the shard count means redeploying.

// ShardOf maps a znode path to its write shard among n shards: the FNV
// hash of the top-level path segment modulo n. The root maps to shard 0.
// It is a pure function of the path, like WatchID, so routing never needs
// a storage round trip.
//
// Txids order only within the shard that minted them (shardTxid). Every
// comparison of two txids whose operands could come from different shards,
// and why it is sound:
//   - The shared root's child stamps — its record's pzxid, its object's,
//     a child watch's frontier and fkclient's watchArm.reached: fixed, one
//     stamp per shard (childStamps, znode.Node.Pzxids, Frontier.Pzxids).
//     The root's Stat.Pzxid is their maximum, for show only.
//   - The cache tier's floors and freshness values on the shared root
//     (cache.Regional's admission, fkclient's lastSeen["/"] and the root's
//     MRD floor): fixed, the shared root bypasses the cache (fkclient's
//     fetch), and the flush legs never install it (an atomic batch's
//     fence of it raises a floor nothing reads).
//     A strict floor bump on its invalidations did not suffice: a node
//     that lost its floors admitted a refill older than a low-txid
//     shard's rebuild.
//   - fkclient's session-wide cache floor (seenFloor: the older half of
//     lastSeen, folded once it passes lastSeenCap paths): over-rejecting
//     only; a cached read floored above its shard's txids falls through to
//     the store.
//   - fkclient's MRD(): the maximum over the shards' MRDs, an accessor;
//     nothing decides on it.
//   - fkclient's read gate (mrd, armMRD): same shard by construction, by
//     the minting shard (mintShard).
//   - A data or exists watch's frontier (mzxid): same shard by
//     construction; a node's data writes all route to its shard, the
//     root's to shard 0.
//   - The leader's commit check and pops (pending list heads): same shard
//     by construction; a record lists its node's shard's txids only.
//   - The distributor's fold stamps (foldChange, foldParent, spliceInto):
//     same shard by construction; a fold is one shard's.
//   - histcheck.Check: its Z2 clause (write-txid-order) keys by minting
//     shard; its bounds are per session and path, and a path's versions
//     come from one shard (a multi()'s paths share it), so every other
//     order is same shard by construction; duplicate-txid and
//     phantom-notification test txids for equality only, which global
//     uniqueness makes exact; a child watch on the root is judged by child
//     sets, not txids.
func ShardOf(path string, n int) int { return shardmap.DefaultShard(path, n) }

// shardTxid interleaves per-shard queue sequence numbers into globally
// unique transaction ids: txid = seqNo*n + shard. Within a shard txids
// stay strictly increasing (the property every per-node invariant relies
// on), and with n = 1 the txid is exactly the queue sequence number, as in
// the unsharded paper design.
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

// Route returns the deployment's routing table: every layer that routes a
// path (follower, client library) reads this one value.
func (d *Deployment) Route() *shardmap.Map { return d.route }

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

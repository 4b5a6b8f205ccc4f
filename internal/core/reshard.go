package core

// Live resharding of the leader write pipeline (Config.DynamicShards).
//
// A reshard moves a set of paths — the segments of reassigned
// consistent-hash slots, or a whole hot subtree being split at depth 2 —
// from source shards to destination shards while the pipeline keeps
// serving everything else. The protocol rides the deployment's existing
// machinery instead of inventing new synchronization:
//
//	gate    write the map with the Migration set and the affected shards'
//	        generations bumped. Writers to migrating paths wait for the
//	        flip (awaitRoutable); every other writer keeps flowing, but
//	        its conditional commit now pins the routed shard's generation
//	        (dynGuard) — a commit that routed with the pre-gate map fails
//	        its guard and retries, exactly like a stale-epoch read retries
//	        behind the Z4 gate. Because every successful commit proves the
//	        gate was not yet set when it landed, every committed write to
//	        a migrating path sits AHEAD of the fence in its source queue.
//
//	drain   transactions quiesce first (their cross-shard commit messages
//	        are ordered by intents, not queues, so the engine waits for
//	        the durable record store to empty; new multis wait at the
//	        gate), then one OpReshardFence message is pushed into each
//	        source shard's queue. The shard's serialized leader acks the
//	        fence through a system-store barrier item — the
//	        deregistration-ack pattern — and FIFO order guarantees every
//	        committed migrating write has been fully distributed first.
//
//	flip    the new map is written with the epoch bumped, the gate
//	        cleared, the generations bumped again, and every destination
//	        shard's SeqBase raised past the largest txid any source could
//	        have minted, so a migrated path's mzxid never regresses.
//	        Readers never blocked at any point; the destination's leader
//	        only ever sees writes committed against the new map.
//
// Uncommitted messages stranded in a source queue (their follower's
// commit failed the generation guard and re-routed) are recognized by the
// leader — not committed AND stamped with a superseded generation — and
// dropped silently: the follower that owns the request is already
// retrying it, so answering would race the retry's response.

import (
	"errors"
	"fmt"
	"strconv"
	"time"

	"faaskeeper/internal/cloud"
	"faaskeeper/internal/cloud/kv"
	"faaskeeper/internal/fksync"
	"faaskeeper/internal/shardmap"
	"faaskeeper/internal/sim"
	"faaskeeper/internal/wire"
)

// Reshard errors.
var (
	ErrNotDynamic  = errors.New("core: resharding requires Config.DynamicShards")
	ErrReshardBusy = errors.New("core: reshard transition did not quiesce")
)

// errStaleRoute marks a follower commit rejected by the map-generation
// guard: the operation must re-route against the refreshed map.
var errStaleRoute = errors.New("core: write routed with a stale shard map")

const (
	// reshardLockKey serializes reshard transitions; the engine uses a
	// long-lease lock manager because a drain can outlive the node-lock
	// lease.
	reshardLockKey = "reshardlock"
	reshardSeqKey  = "reshardseq"
	attrReshardSeq = "n"

	fenceKeyPrefix = "reshardfence:"
)

func fenceKey(id int64) string    { return fenceKeyPrefix + strconv.FormatInt(id, 10) }
func fenceShardAttr(s int) string { return "s" + strconv.Itoa(s) }
func (d *Deployment) ctlCtx() cloud.Ctx {
	return d.billSys(cloud.ClientCtx(d.Cfg.Profile.Home), 0)
}

// dynGuard returns the extra transaction leg pinning the routed shard's
// map generation on a follower commit (nil on static deployments): the
// commit succeeds only if the shard's routing has not changed since the
// message was routed and pushed.
func (d *Deployment) dynGuard(shard int, gen int64) []kv.TxOp {
	if d.dyn == nil {
		return nil
	}
	return []kv.TxOp{{Key: d.dyn.store.Key(), Cond: shardmap.GenCond(shard, gen)}}
}

// dynGuardMV is dynGuard against an explicit map snapshot (multi-op plans
// pin the snapshot they routed with).
func (d *Deployment) dynGuardMV(mv *shardmap.Map, shard int) []kv.TxOp {
	if mv == nil {
		return nil
	}
	return []kv.TxOp{{Key: d.dyn.store.Key(), Cond: shardmap.GenCond(shard, mv.GenOf(shard))}}
}

// staleRoutedCommit classifies a failed guarded commit: true when the
// routed shard's generation moved (the write must re-route and retry),
// false when the timed-lock lease was genuinely lost.
func (d *Deployment) staleRoutedCommit(ctx cloud.Ctx, shard int, gen int64) bool {
	if d.dyn == nil {
		return false
	}
	return d.refreshMap(ctx).GenOf(shard) != gen
}

// staleDynMsg recognizes an uncommitted leader message stranded by a
// reshard: its stamped generation is superseded, so its follower already
// observed the guard failure and owns the retry — the leader must drop it
// without answering (a failure response would race the retry's response
// for the same client sequence number).
func (d *Deployment) staleDynMsg(ctx cloud.Ctx, msg leaderMsg, gen int64) bool {
	if d.dyn == nil || msg.Op == OpDeregister {
		return false
	}
	return d.refreshMap(ctx).GenOf(msg.Shard) != gen
}

// ackFence records a source shard's fence in the barrier item; the
// serialized leader calls it only after every earlier message in the
// queue has been fully processed and distributed.
func (d *Deployment) ackFence(ctx cloud.Ctx, msg leaderMsg) {
	_, _ = d.System.Update(ctx, fenceKey(msg.DeregID),
		[]kv.Update{kv.Set{Name: fenceShardAttr(msg.Shard), V: kv.N(1)}}, nil)
}

// GrowShards grows the deployment to `queues` shard queues, moving
// ~Slots/queues consistent-hash slots per new queue through the live
// reshard protocol. It must be called from inside a sim process.
func (d *Deployment) GrowShards(queues int) error {
	return d.reshard(func(cur *shardmap.Map) (*shardmap.Map, error) { return cur.PlanGrow(queues) })
}

// ShrinkShards retires trailing shard queues down to `queues` (not below
// the base modulus), reverting their slots to the pre-move owners. The
// queues stay provisioned but become idle.
func (d *Deployment) ShrinkShards(queues int) error {
	return d.reshard(func(cur *shardmap.Map) (*shardmap.Map, error) { return cur.PlanShrink(queues) })
}

// SplitSubtree re-routes a hot top-level subtree over `ways` new shard
// queues, hashing the second path segment so parents and children below
// the subtree root stay colocated. The subtree root itself becomes a
// shared path maintained under a cross-shard lock, like the tree root.
func (d *Deployment) SplitSubtree(prefix string, ways int) error {
	return d.reshard(func(cur *shardmap.Map) (*shardmap.Map, error) { return cur.PlanSplit(prefix, ways) })
}

// MergeSubtree folds a split subtree back onto its pre-split route.
func (d *Deployment) MergeSubtree(prefix string) error {
	return d.reshard(func(cur *shardmap.Map) (*shardmap.Map, error) { return cur.PlanMerge(prefix) })
}

// reshard drives one planned transition through gate → drain → flip.
func (d *Deployment) reshard(plan func(*shardmap.Map) (*shardmap.Map, error)) error {
	if d.dyn == nil {
		return ErrNotDynamic
	}
	ctx := d.ctlCtx()
	// Transitions serialize on a dedicated long-lease timed lock: a drain
	// can take longer than the node-lock lease, and two engines
	// interleaving their gates would tangle the generation bookkeeping.
	locks := fksync.NewLockManager(d.Env, d.System, 5*time.Minute)
	lock, _, err := locks.AcquireWait(ctx, reshardLockKey, 0)
	if err != nil {
		return err
	}
	defer func() { _ = locks.Release(ctx, lock) }()

	cur, err := d.dyn.store.Load(ctx)
	if err != nil {
		return err
	}
	next, err := plan(cur)
	if err != nil || next == nil {
		return err
	}

	// Provision destination queues before any routing can target them.
	for len(d.LeaderQs) < next.Queues {
		d.addShardQueue()
	}

	if next.Mig == nil {
		// Nothing migrates (e.g. retiring already-empty queues): flip
		// directly.
		next.Epoch = cur.Epoch + 1
		if err := d.dyn.store.Write(ctx, next); err != nil {
			return err
		}
		d.dyn.cur = next
		return nil
	}
	mig := next.Mig

	// Gate: migrating writers wait, affected shards' generations bump.
	gated := cur.Gate(mig)
	if err := d.dyn.store.Write(ctx, gated); err != nil {
		return err
	}
	d.dyn.cur = gated

	abort := func(cause error) error {
		// Clear the gate without changing routing; bump the generations
		// again so any commit stamped with the gate-era generation of an
		// affected shard re-routes against the restored map.
		restored := cur.Clone()
		restored.Gens = gated.Clone().Gens
		restored = restored.Gate(mig)
		restored.Mig = nil
		if werr := d.dyn.store.Write(ctx, restored); werr == nil {
			d.dyn.cur = restored
		}
		return cause
	}

	// Transactions quiesce: their phase-two commit messages are ordered
	// by intents rather than queue position, so none may be in flight
	// when the sources drain. New multis wait at the gate.
	quiesced := false
	for attempt := 0; attempt < 2000; attempt++ {
		if d.Txns.Live(ctx) == 0 {
			quiesced = true
			break
		}
		d.K.Sleep(5 * sim.Ms(1))
	}
	if !quiesced {
		return abort(fmt.Errorf("%w: transactions still in flight", ErrReshardBusy))
	}

	// Fence and drain every source shard.
	it, err := d.System.Update(ctx, reshardSeqKey,
		[]kv.Update{kv.Add{Name: attrReshardSeq, Delta: 1}}, nil)
	if err != nil {
		return abort(err)
	}
	fenceID := it.Get(attrReshardSeq).Num
	for _, s := range mig.Sources {
		fence := leaderMsg{Op: OpReshardFence, Shard: s, DeregID: fenceID}
		e := wire.NewEncoder()
		_, err := d.LeaderQs[s].Send(ctx, "reshard", fence.encode(e))
		e.Release()
		if err != nil {
			return abort(err)
		}
	}
	acked := false
	for attempt := 0; attempt < 4000; attempt++ {
		it, ok := d.System.Get(ctx, fenceKey(fenceID), true)
		if ok {
			all := true
			for _, s := range mig.Sources {
				if it.Get(fenceShardAttr(s)).Num != 1 {
					all = false
					break
				}
			}
			if all {
				acked = true
				break
			}
		}
		d.K.Sleep(sim.Time(min(attempt+1, 5)) * 2 * sim.Ms(1))
	}
	if !acked {
		return abort(fmt.Errorf("%w: source shards did not drain", ErrReshardBusy))
	}
	_ = d.System.Delete(ctx, fenceKey(fenceID), nil)

	// Flip: the largest txid any source could have minted bounds the
	// destinations' SeqBase (the queue's sequence counter is the txid
	// source, so its current value is exactly that bound).
	var bound int64
	for _, s := range mig.Sources {
		b := (d.LeaderQs[s].LastSeqNo()+cur.SeqBase[s])*shardmap.Stride + int64(s)
		if b > bound {
			bound = b
		}
	}
	flip := next.Clone()
	flip.Epoch = cur.Epoch
	flip.Gens = gated.Clone().Gens
	final := flip.Flip(bound)
	if err := d.dyn.store.Write(ctx, final); err != nil {
		return abort(err)
	}
	d.dyn.cur = final
	return nil
}

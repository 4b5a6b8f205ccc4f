package core

// The batching distributor (Config.BatchWrites) restructures the leader's
// update loop around batch-scoped state. Algorithm 2 stays intact per
// message — commit verification (➊/➋), watch claiming, and the pending
// pop (➎) run operation by operation so pipelined transactions on one
// node still see the correct pending heads — but the distribution (➌)
// moves to the batch level: within one queue batch, writes to the same
// node fold into the final state (one user-store write per region,
// stamped with the batch's epoch union and the path's newest txid),
// creates and deletes coalesce into one parent child-list
// read-modify-write per parent per batch, and the regional caches
// receive one multi-path invalidation record instead of one per message.
//
// Every per-operation guarantee survives the restructuring:
//
//   - Each client receives its own Stat carrying its own txid/mzxid,
//     computed during that message's commit phase before later writes
//     fold over it (no final-stat leakage).
//   - Watch ids enter the epoch counters during the commit phase, before
//     any of the batch's values become readable, so reads of the new
//     state always hold for undelivered notifications (Z4) — the same
//     pre-fire ordering the multi-shard pipeline uses. Deliveries launch
//     after the flush, each payload carrying its own operation's txid.
//   - Client notifications go out only after the flush: a response in
//     hand implies the write is readable (read-your-writes), exactly as
//     in the per-message path, and deregistration acks still order
//     behind every ephemeral deletion's distribution.
//   - Invalidations publish before any of the batch's writes land, so a
//     racing read of a pre-batch value can never re-fill a cache above
//     the overwrite (the cache tier's standing ordering argument).

import (
	"slices"
	"sync"

	"faaskeeper/internal/cache"
	"faaskeeper/internal/cloud"
	"faaskeeper/internal/fksync"
	"faaskeeper/internal/obs"
	"faaskeeper/internal/sim"
	"faaskeeper/internal/znode"
)

// opResult is one message's buffered commit-phase outcome, completed
// (notify, watch launch, dereg ack) after the batch flush.
type opResult struct {
	msg   leaderMsg
	txid  int64
	code  Code
	stat  znode.Stat
	fired []firedWatch
	dereg bool
	drop  bool // stranded by a reshard: the follower owns the retry, stay silent
}

// nodeFold is the final folded user-store state of one touched node.
type nodeFold struct {
	node *znode.Node // object to write; nil when the final op deleted it
	del  bool
	txid int64 // newest txid folded into this path (invalidation floor)
}

// parentFold coalesces a batch's child-list splices on one parent.
type parentFold struct {
	present  map[string]bool // child name -> final presence, in op order
	names    []string        // first-touch order, for deterministic splicing
	cversion int32           // max over the folded operations
	pzxid    int64           // max txid over the folded operations
	consumed bool            // merged into a node write or the shared root
}

// batchFold accumulates the net effect of one queue batch on the user
// stores. Operations fold in txid order (the queue batch's order), so
// "last write wins" per node and the child presence map reflects the
// final create/delete outcome even for create→delete→create chains.
type batchFold struct {
	order       []string // node paths in first-touch order
	nodes       map[string]*nodeFold
	parentOrder []string
	parents     map[string]*parentFold
}

// batchFoldPool recycles the per-flush fold's maps and slices: every
// queue batch allocates one, and the bucket arrays dominate its cost.
var batchFoldPool = sync.Pool{New: func() any {
	return &batchFold{nodes: map[string]*nodeFold{}, parents: map[string]*parentFold{}}
}}

func newBatchFold() *batchFold { return batchFoldPool.Get().(*batchFold) }

// release returns the fold to the pool. Callers invoke it only once the
// flush holds no further references — after distributeFold's regional
// goroutines have all joined and any post-distribution lookups
// (transaction pending pops) are done. The entry structs are dropped,
// not recycled: node pointers were handed to the stores.
func (f *batchFold) release() {
	clear(f.nodes)
	clear(f.parents)
	f.order = f.order[:0]
	f.parentOrder = f.parentOrder[:0]
	batchFoldPool.Put(f)
}

// invSlicePool recycles the per-region invalidation record assembled on
// every batch flush; InvalidateBatch does not retain the slice (apply
// copies the epoch stamp it keeps).
var invSlicePool = sync.Pool{New: func() any { return new([]cache.Invalidation) }}

// parentFoldPool recycles the scratch fold the per-message pipeline's
// parent read-modify-write builds for every create/delete (spliceInto
// does not retain it). Folds owned by a batchFold are NOT pooled — they
// are dropped wholesale by batchFold.release.
var parentFoldPool = sync.Pool{New: func() any { return &parentFold{present: map[string]bool{}} }}

func newParentFold() *parentFold { return parentFoldPool.Get().(*parentFold) }

func (pf *parentFold) release() {
	clear(pf.present)
	pf.names = pf.names[:0]
	pf.cversion, pf.pzxid, pf.consumed = 0, 0, false
	parentFoldPool.Put(pf)
}

// foldWrite records path's newest object; an earlier write or tombstone
// of the same path in this batch is superseded.
func (f *batchFold) foldWrite(path string, n *znode.Node, txid int64) {
	nf, ok := f.nodes[path]
	if !ok {
		nf = &nodeFold{}
		f.nodes[path] = nf
		f.order = append(f.order, path)
	}
	nf.node, nf.del, nf.txid = n, false, txid
}

// foldDelete records that path's final state in this batch is deleted.
func (f *batchFold) foldDelete(path string, txid int64) {
	nf, ok := f.nodes[path]
	if !ok {
		nf = &nodeFold{}
		f.nodes[path] = nf
		f.order = append(f.order, path)
	}
	nf.node, nf.del, nf.txid = nil, true, txid
}

// foldParent applies one create/delete's child splice to the parent's
// coalesced state.
func (f *batchFold) foldParent(parent, childAdd, childDel string, cversion int32, txid int64) {
	pf, ok := f.parents[parent]
	if !ok {
		pf = &parentFold{present: map[string]bool{}}
		f.parents[parent] = pf
		f.parentOrder = append(f.parentOrder, parent)
	}
	if childAdd != "" {
		if _, seen := pf.present[childAdd]; !seen {
			pf.names = append(pf.names, childAdd)
		}
		pf.present[childAdd] = true
	}
	if childDel != "" {
		if _, seen := pf.present[childDel]; !seen {
			pf.names = append(pf.names, childDel)
		}
		pf.present[childDel] = false
	}
	if cversion > pf.cversion {
		pf.cversion = cversion
	}
	if txid > pf.pzxid {
		pf.pzxid = txid
	}
}

// spliceInto applies a parent fold to a node object: the final child
// presences (idempotently — the object may already reflect some of them)
// and the raised stamps, mirroring applyParentRMW's only-raise rule.
func spliceInto(n *znode.Node, pf *parentFold) {
	for _, name := range pf.names {
		if pf.present[name] {
			if !slices.Contains(n.Children, name) {
				n.Children = append(n.Children, name)
			}
		} else {
			n.Children = removeString(n.Children, name)
		}
	}
	if pf.cversion > n.Stat.Cversion {
		n.Stat.Cversion = pf.cversion
	}
	if pf.pzxid > n.Stat.Pzxid {
		n.Stat.Pzxid = pf.pzxid
	}
	n.Stat.NumChildren = int32(len(n.Children))
}

// leaderProcessBatched is the BatchWrites pipeline: commit each message,
// fold its effect, flush the fold, then complete the buffered operations
// in order. MaxBatch > 0 chunks one invocation batch into several flushes.
func (d *Deployment) leaderProcessBatched(ctx cloud.Ctx, msgs []decodedMsg, epochs map[cloud.Region][]int64) []watchCompletion {
	// Tombstone-GC lookahead: a delete followed in the same invocation by
	// another operation on the same path (create→delete→create) must not
	// collect the node item — the later operation's follower commit may
	// not have appended to the pending list yet, and collecting the item
	// would strand that commit. The per-message pipeline closes the same
	// window with its distribution latency; the batch knows outright.
	later := map[string]int{}
	for _, dm := range msgs {
		switch dm.msg.Op {
		case OpDeregister, OpReshardFence:
		case OpMulti, OpTxnCommit:
			// Transaction targets count toward the lookahead too, so a
			// batched delete before them never collects a tombstone the
			// transaction's commit still needs. The transaction itself
			// never decrements — at worst a tombstone lingers until the
			// next delete's collection, the lock-guard precedent.
			if tm, err := decodeTxnMsg(dm.msg.NodeBlob); err == nil {
				for _, p := range txnTargets(tm.Ops) {
					later[p]++
				}
			}
		default:
			later[dm.msg.Path]++
		}
	}
	var completions []watchCompletion
	var run []decodedMsg
	flushRun := func() {
		if len(run) == 0 {
			return
		}
		chunk := d.Cfg.MaxBatch
		if chunk <= 0 || chunk > len(run) {
			chunk = len(run)
		}
		for start := 0; start < len(run); start += chunk {
			end := min(start+chunk, len(run))
			completions = append(completions, d.flushBatch(ctx, run[start:end], later, epochs)...)
		}
		run = nil
	}
	for _, dm := range msgs {
		// Transaction messages are fold barriers: their distribution has
		// its own atomicity protocol, so the accumulated run flushes
		// first and the message runs through the per-message pipeline.
		if dm.msg.Op == OpMulti || dm.msg.Op == OpTxnCommit {
			flushRun()
			completions = append(completions, d.leaderProcess(d.billMsg(ctx, dm.msg), dm.msg, dm.txid, epochs)...)
			continue
		}
		// A reshard fence is a fold barrier too: the ack promises every
		// earlier message has been distributed, so the run must flush
		// before it is written.
		if dm.msg.Op == OpReshardFence {
			flushRun()
			d.ackFence(d.billSys(ctx, dm.msg.Shard), dm.msg)
			continue
		}
		run = append(run, dm)
	}
	flushRun()
	return completions
}

// flushBatch runs the commit phase over one chunk, distributes the folded
// state, and completes every buffered operation in queue order.
func (d *Deployment) flushBatch(ctx cloud.Ctx, msgs []decodedMsg, later map[string]int, epochs map[cloud.Region][]int64) []watchCompletion {
	tBatch := d.K.Now()
	fold := newBatchFold()
	// The batch-level distribution serves the whole chunk at once: its
	// charges amortize across the chunk's traces (untraced members keep
	// their share in the system bucket). Commit phases stay per-message.
	dctx := ctx
	if d.costOn() {
		traces := make([]int64, 0, len(msgs))
		for _, dm := range msgs {
			traces = append(traces, costMsgTrace(dm.msg))
		}
		dctx = d.billFold(ctx, traces, msgs[0].msg.Shard, "")
	}
	results := make([]opResult, 0, len(msgs))
	for _, dm := range msgs {
		t0 := d.K.Now()
		results = append(results, d.commitOne(d.billMsg(ctx, dm.msg), dm, fold, later, epochs))
		d.recordPhase("leader.commit", d.K.Now()-t0)
	}

	// Every committed message's chain enters the flush stage together: the
	// batch-level distribution serves all of them at once (its region legs
	// are recorded as trace-0 pipeline spans inside distributeFold).
	for _, r := range results {
		if !r.drop && !r.dereg && r.code == CodeOK {
			d.stageMsg(r.msg, obs.StageFlush)
		}
	}
	t0 := d.K.Now()
	d.distributeFold(dctx, fold, epochs, false)
	d.recordPhase("leader.update", d.K.Now()-t0)
	fold.release()

	var completions []watchCompletion
	for _, r := range results {
		if r.drop {
			continue
		}
		if r.dereg {
			// Processed only after the flush: the ack's shard-FIFO position
			// put it behind the session's ephemeral deletions, and the
			// flush just distributed them.
			if d.deregAckComplete(d.billMsg(ctx, r.msg), r.msg) {
				d.notifyResult(r.msg, r.txid, CodeOK, znode.Stat{})
			}
			continue
		}
		if d.fanoutOn() && r.code == CodeOK {
			// The batch's writes are readable: release this operation's
			// parked firings at the fan-out nodes.
			d.fanoutRelease(ctx, r.txid)
		}
		for _, fw := range r.fired {
			payload := watchPayload{
				WatchID: fw.wid, Event: fw.event, Path: fw.path, Txid: r.txid, Sessions: fw.sessions,
			}
			sp := d.tspan(d.msgTrace(r.msg), obs.SpanWatchDeliver, fw.path, r.msg.Shard, "")
			wctx := d.billSpan(ctx, costMsgTrace(r.msg), sp, r.msg.Shard, "")
			fut := d.Platform.InvokeAsync(wctx, FnWatch, payload.encode())
			completions = append(completions, watchCompletion{wid: fw.wid, fut: fut, span: sp})
		}
		tn := d.K.Now()
		d.notifyResult(r.msg, r.txid, r.code, r.stat)
		d.recordPhase("leader.notify", d.K.Now()-tn)
	}
	// One total per flush, the container of every sub-phase above (the
	// per-message pipeline records one total per message instead; the
	// batched commit spans are sampled separately as leader.commit).
	d.recordPhase("leader.total", d.K.Now()-tBatch)
	return completions
}

// commitOne is the per-message commit phase: Algorithm 2 minus the
// distribution. It verifies the commit, claims watches and enters their
// ids into the epoch counters (pre-distribution, the multi-shard
// pre-fire ordering), folds the operation's effect, and pops the pending
// transaction so the next operation on the same node sees the correct
// head. The Stat is captured here, from this operation's own txid and
// version, before any later operation folds over the node.
func (d *Deployment) commitOne(ctx cloud.Ctx, dm decodedMsg, fold *batchFold, later map[string]int, epochs map[cloud.Region][]int64) opResult {
	msg, txid := dm.msg, dm.txid
	if msg.Op == OpDeregister {
		return opResult{msg: msg, txid: txid, dereg: true}
	}
	later[msg.Path]--
	d.stageMsg(msg, obs.StageCommit)
	t0 := d.K.Now()
	node, committed := d.awaitCommit(ctx, msg, txid)
	d.recordPhase("leader.get", d.K.Now()-t0)
	if !committed {
		if d.staleDynMsg(ctx, msg, dynGen(msg)) {
			// Same ownership resolution as the per-message pipeline: a
			// crashed follower's fenced message has no retry owner, so if
			// its orphaned locks are still in place the leader reclaims
			// them and answers instead of staying silent.
			if d.reclaimFencedMsg(ctx, msg) {
				return opResult{msg: msg, txid: txid, code: CodeSystemError}
			}
			return opResult{msg: msg, txid: txid, code: CodeSystemError, drop: true}
		}
		return opResult{msg: msg, txid: txid, code: CodeSystemError}
	}

	t0 = d.K.Now()
	var fired []firedWatch
	if d.fanoutOn() {
		// One record per (path, txid) to the fan-out nodes; released
		// after the batch's distribution (see flushBatch).
		d.fanoutPublish(ctx, msg, txid, epochs)
	} else {
		fired = d.queryWatches(ctx, msg)
		d.appendEpochs(ctx, fired, msg.Shard, epochs)
	}
	d.recordPhase("leader.watchquery", d.K.Now()-t0)

	var stat znode.Stat
	switch {
	case msg.Op == OpDelete:
		fold.foldDelete(msg.Path, txid)
		if msg.ParentPath != "" {
			fold.foldParent(msg.ParentPath, msg.ChildAdd, msg.ChildDel, msg.Cversion, txid)
		}
	default:
		if n := d.buildUserNode(msg, txid, node); n != nil {
			stat = n.Stat
			fold.foldWrite(msg.Path, n, txid)
			if msg.ParentPath != "" {
				fold.foldParent(msg.ParentPath, msg.ChildAdd, msg.ChildDel, msg.Cversion, txid)
			}
		}
	}

	d.popPending(ctx, msg, txid, later[msg.Path] == 0)
	return opResult{msg: msg, txid: txid, code: CodeOK, stat: stat, fired: fired}
}

// distributeFold is the batch-level ➌: one coalesced invalidation record,
// the final state of every touched node, and one read-modify-write per
// parent, per region in parallel. atomicApply is the transaction commit
// point (package txn): node writes go through the store's AtomicApplier
// when it has one, becoming readable at a single instant; stores without
// multi-key transactions (the object store) fall back to writing in fold
// order, so readers observe a prefix of the transaction, never an
// arbitrary mix.
func (d *Deployment) distributeFold(ctx cloud.Ctx, fold *batchFold, epochs map[cloud.Region][]int64, atomicApply bool) {
	if len(fold.order) == 0 && len(fold.parentOrder) == 0 {
		return
	}

	// Merge child-list splices into node objects rewritten in the same
	// batch: a per-parent RMW would read the store's pre-batch object and
	// either the splice or the data write would be lost. A parent deleted
	// in this batch drops its splices (its child list is moot). Shared
	// parents — the root of a sharded deployment, a split subtree's root
	// — are peeled off instead: their RMW must run under the cross-shard
	// lock.
	sharedPFs := map[string]*parentFold{}
	var sharedOrder []string
	for _, p := range fold.parentOrder {
		pf := fold.parents[p]
		if d.isSharedPath(p) {
			sharedPFs[p] = pf
			sharedOrder = append(sharedOrder, p)
			pf.consumed = true
			continue
		}
		nf, ok := fold.nodes[p]
		if !ok {
			continue
		}
		pf.consumed = true
		if nf.del {
			continue
		}
		spliceInto(nf.node, pf)
		if pf.pzxid > nf.txid {
			nf.txid = pf.pzxid
		}
	}

	// Cross-shard shared-path work — a data write to a shared object or a
	// create/delete splice under it — is serialized under the path's
	// shared lock, held once across the whole flush (the unbatched path
	// holds it across the corresponding per-op distribution for the same
	// reason: an interleaved RMW from another shard would lose children).
	// Locks are taken in sorted path order: two flushes on different
	// shards touching the same shared paths then never deadlock.
	lockSet := map[string]bool{}
	for _, p := range sharedOrder {
		lockSet[p] = true
	}
	for _, p := range fold.order {
		if nf := fold.nodes[p]; !nf.del && d.isSharedPath(p) {
			lockSet[p] = true
		}
	}
	lockPaths := make([]string, 0, len(lockSet))
	for p := range lockSet {
		lockPaths = append(lockPaths, p)
	}
	slices.Sort(lockPaths)
	for _, p := range lockPaths {
		lock := d.acquireSharedLock(ctx, p)
		defer func(l fksync.Lock) { _ = d.Locks.Release(ctx, l) }(lock)
	}
	for _, p := range fold.order {
		nf := fold.nodes[p]
		if nf.del || !d.isSharedPath(p) {
			continue
		}
		d.refreshSharedFromSystem(ctx, p, nf.node)
	}

	wg := sim.NewWaitGroup(d.K)
	for _, s := range d.Stores {
		s := s
		wg.Add(1)
		d.K.Go("leader-update-"+string(s.Region()), func() {
			defer wg.Done()
			stamp := epochs[s.Region()]
			// One coalesced record per touched path, published before any
			// of the batch's writes become readable in this region.
			if rc := d.CacheFor(s.Region()); rc != nil {
				// Batch legs serve many requests at once: recorded as
				// trace-0 pipeline spans rather than per-request children.
				tsp := d.tspan(0, obs.SpanCacheInval, "", -1, string(s.Region()))
				sp := invSlicePool.Get().(*[]cache.Invalidation)
				invs := fold.appendInvalidations((*sp)[:0], sharedPFs, stamp, d.cacheMapEpoch())
				rc.InvalidateBatch(ctx, invs)
				*sp = invs[:0]
				invSlicePool.Put(sp)
				d.spanEnd(tsp)
			}
			tsp := d.tspan(0, obs.SpanStoreWrite, "", -1, string(s.Region()))
			defer d.spanEnd(tsp)
			if aa, atomic := s.(AtomicApplier); atomicApply && atomic {
				writes := make([]BatchWrite, 0, len(fold.order))
				for _, p := range fold.order {
					nf := fold.nodes[p]
					if nf.del {
						writes = append(writes, BatchWrite{Path: p})
					} else {
						writes = append(writes, BatchWrite{Path: p, Node: nf.node, Epoch: stamp})
					}
				}
				_ = aa.ApplyBatch(ctx, writes)
			} else {
				for _, p := range fold.order {
					nf := fold.nodes[p]
					if nf.del {
						_ = s.Delete(ctx, p)
					} else {
						_ = s.Write(ctx, nf.node, stamp)
					}
				}
			}
			for _, p := range fold.parentOrder {
				pf := fold.parents[p]
				if pf.consumed {
					continue
				}
				d.applyParentFold(ctx, s, p, pf, stamp)
			}
		})
	}
	wg.Wait()

	// The shared parents' coalesced splices run after the regional writes,
	// still under the shared locks taken above (mirroring
	// updateSharedParent's position in the per-op pipeline).
	for _, p := range sharedOrder {
		p, pf := p, sharedPFs[p]
		rwg := sim.NewWaitGroup(d.K)
		for _, s := range d.Stores {
			s := s
			rwg.Add(1)
			d.K.Go("leader-root-"+string(s.Region()), func() {
				defer rwg.Done()
				d.applyParentFold(ctx, s, p, pf, epochs[s.Region()])
			})
		}
		rwg.Wait()
	}
}

// appendInvalidations assembles the batch's coalesced multi-path
// invalidation record for one region into invs (pooled scratch): each
// touched path once, at its newest folded txid. Shared parents' splices
// (flushed after the regional writes) are included so their floors are
// raised before their RMWs land too.
func (f *batchFold) appendInvalidations(invs []cache.Invalidation, shared map[string]*parentFold, stamp []int64, mapEpoch int64) []cache.Invalidation {
	for _, p := range f.order {
		invs = append(invs, cache.Invalidation{Path: p, Mzxid: f.nodes[p].txid, Epoch: stamp, MapEpoch: mapEpoch})
	}
	for _, p := range f.parentOrder {
		pf := f.parents[p]
		if _, isShared := shared[p]; pf.consumed && !isShared {
			continue // folded into the node write above
		}
		invs = append(invs, cache.Invalidation{Path: p, Mzxid: pf.pzxid, Epoch: stamp, MapEpoch: mapEpoch})
	}
	return invs
}

// applyParentFold is the batch's one read-modify-write per parent and
// region: read, apply the coalesced splices, raise the stamps, write
// back. The invalidation for this path was already published with the
// batch record.
func (d *Deployment) applyParentFold(ctx cloud.Ctx, s UserStore, path string, pf *parentFold, stamp []int64) {
	parent, _, err := s.Read(ctx, path)
	if err != nil {
		return
	}
	spliceInto(parent, pf)
	_ = s.Write(ctx, parent, stamp)
}

package core

// The distributor is the leader's one write pipeline. Every invocation's
// messages run through it in chunks of at most Config.MaxBatch
// (BatchWrites off ≡ chunks of one message, the paper's per-message
// distribution), each chunk in three phases:
//
//	commit    per message: verify the system-store commit (➊/➋) and fold
//	          the operation's effect into the chunk's batchFold
//	flush     per chunk: distribute the folded state (➌) — one
//	          invalidation record, the final state of every touched node,
//	          one child-list read-modify-write per parent, per region
//	complete  per message, in queue order: fire watches (➍), notify the
//	          client, pop the pending transaction (➎)
//
// A one-message chunk is exactly Algorithm 2. Two of its steps move into
// the commit phase when — and only when — something the code observes
// forces them there:
//
//   - Watch claim. Ids must be in the epoch counters before a value that
//     another writer may causally follow becomes readable (Z4). A lone
//     message on a single serialized shard keeps the paper's order (query
//     after the flush, enter each id right before launching its
//     delivery); several shards, the fan-out tier, or a chunk of several
//     messages claim before the flush (flushChunk's claimEarly).
//   - Pending pop. The next message's awaitCommit needs its txid at the
//     head of the node's pending list, so a message followed in the same
//     chunk by another on the same path pops in the commit phase. Every
//     other pop stays after the client's notify, off its critical path.
//
// Every per-operation guarantee holds at any chunk size:
//
//   - Each client receives its own Stat carrying its own txid/mzxid,
//     computed during that message's commit phase before later writes
//     fold over it (no final-stat leakage).
//   - Deliveries launch after the flush, each payload carrying its own
//     operation's txid.
//   - Client notifications go out only after the flush: a response in
//     hand implies the write is readable (read-your-writes), and
//     deregistration acks still order behind every ephemeral deletion's
//     distribution.
//   - Invalidations publish before any of the chunk's writes land, so a
//     racing read of a pre-chunk value can never re-fill a cache above
//     the overwrite (the cache tier's standing ordering argument).
//
// Transaction messages and reshard fences are chunk barriers: the run
// before them flushes first (txnops.go, reshard.go).

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
// (watch launch, notify, pop, dereg ack) after the chunk's flush. Results
// are index-aligned with the chunk's messages.
type opResult struct {
	ctx    cloud.Ctx // the message's own billing context
	code   Code
	stat   znode.Stat
	fired  []firedWatch
	popped bool // ➎ already ran in the commit phase
	drop   bool // stranded by a reshard: the follower owns the retry, stay silent
}

// nodeFold is the final folded user-store state of one touched node.
type nodeFold struct {
	node *znode.Node // object to write; nil when the final op deleted it
	del  bool
	txid int64 // newest txid folded into this path (invalidation floor)
}

// parentFold coalesces a chunk's child-list splices on one parent.
type parentFold struct {
	present  map[string]bool // child name -> final presence, in op order
	names    []string        // first-touch order, for deterministic splicing
	cversion int32           // max over the folded operations
	pzxid    int64           // max txid over the folded operations
	consumed bool            // merged into a node write or the shared root
}

// batchFold accumulates the net effect of one chunk on the user stores.
// Operations fold in txid order (the queue's order), so "last write wins"
// per node and the child presence map reflects the final create/delete
// outcome even for create→delete→create chains.
type batchFold struct {
	order       []string // node paths in first-touch order
	nodes       map[string]*nodeFold
	parentOrder []string
	parents     map[string]*parentFold

	// results and the spare entry structs ride the pooled fold, so a
	// steady-state flush allocates none of them.
	results      []opResult
	spareNodes   []*nodeFold
	spareParents []*parentFold
}

// batchFoldPool recycles the per-flush fold: every chunk takes one, and
// the maps' bucket arrays dominate its cost.
var batchFoldPool = sync.Pool{New: func() any {
	return &batchFold{nodes: map[string]*nodeFold{}, parents: map[string]*parentFold{}}
}}

func newBatchFold() *batchFold { return batchFoldPool.Get().(*batchFold) }

// release returns the fold to the pool. Callers invoke it only once the
// flush holds no further references — after distributeFold's regional
// goroutines have all joined and the results are completed. The entry
// structs are emptied and kept; the node objects they pointed to were
// handed to the stores.
func (f *batchFold) release() {
	for _, nf := range f.nodes {
		*nf = nodeFold{}
		f.spareNodes = append(f.spareNodes, nf)
	}
	for _, pf := range f.parents {
		clear(pf.present)
		*pf = parentFold{present: pf.present, names: pf.names[:0]}
		f.spareParents = append(f.spareParents, pf)
	}
	clear(f.nodes)
	clear(f.parents)
	clear(f.results)
	f.order, f.parentOrder, f.results = f.order[:0], f.parentOrder[:0], f.results[:0]
	batchFoldPool.Put(f)
}

func (f *batchFold) empty() bool { return len(f.order) == 0 && len(f.parentOrder) == 0 }

// invSlicePool recycles the per-region invalidation record assembled on
// every flush; InvalidateBatch does not retain the slice (apply copies
// the epoch stamp it keeps).
var invSlicePool = sync.Pool{New: func() any { return new([]cache.Invalidation) }}

// nodeOf returns path's fold entry, registering it on first touch.
func (f *batchFold) nodeOf(path string) *nodeFold {
	nf, ok := f.nodes[path]
	if !ok {
		if n := len(f.spareNodes); n > 0 {
			nf, f.spareNodes = f.spareNodes[n-1], f.spareNodes[:n-1]
		} else {
			nf = &nodeFold{}
		}
		f.nodes[path] = nf
		f.order = append(f.order, path)
	}
	return nf
}

// foldWrite records path's newest object; an earlier write or tombstone
// of the same path in this chunk is superseded.
func (f *batchFold) foldWrite(path string, n *znode.Node, txid int64) {
	*f.nodeOf(path) = nodeFold{node: n, txid: txid}
}

// foldDelete records that path's final state in this chunk is deleted.
func (f *batchFold) foldDelete(path string, txid int64) {
	*f.nodeOf(path) = nodeFold{del: true, txid: txid}
}

// foldParent applies one create/delete's child splice to the parent's
// coalesced state.
func (f *batchFold) foldParent(parent, childAdd, childDel string, cversion int32, txid int64) {
	pf, ok := f.parents[parent]
	if !ok {
		if n := len(f.spareParents); n > 0 {
			pf, f.spareParents = f.spareParents[n-1], f.spareParents[:n-1]
		} else {
			pf = &parentFold{present: map[string]bool{}}
		}
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
// and only-raised stamps (within a shard they are monotone anyway; on a
// shared root two shards may apply their updates out of global txid
// order).
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

// leaderPipeline runs one invocation's messages through the pipeline:
// maximal runs between barriers, each cut into chunks of at most
// Config.MaxBatch messages (0 = the whole run).
func (d *Deployment) leaderPipeline(ctx cloud.Ctx, msgs []decodedMsg, epochs map[cloud.Region][]int64) []watchCompletion {
	// Tombstone-GC lookahead: a delete followed in the same invocation by
	// another operation on the same path (create→delete→create) must not
	// collect the node item — the later operation's follower commit may
	// not have appended to the pending list yet, and collecting the item
	// would strand that commit.
	later := map[string]int{}
	for _, dm := range msgs {
		switch dm.msg.Op {
		case OpDeregister, OpReshardFence:
		case OpMulti, OpTxnCommit:
			// Transaction targets count toward the lookahead too, so a
			// delete before them never collects a tombstone the
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
	start := 0 // the current run is msgs[start:i]
	flushRun := func(end int) {
		run := msgs[start:end]
		start = end + 1
		chunk := d.Cfg.MaxBatch
		if chunk <= 0 {
			chunk = len(run)
		}
		for at := 0; at < len(run); at += chunk {
			completions = append(completions, d.flushChunk(ctx, run[at:min(at+chunk, len(run))], later, epochs)...)
		}
	}
	for i, dm := range msgs {
		switch dm.msg.Op {
		case OpMulti, OpTxnCommit:
			// Transaction messages are fold barriers: their distribution
			// has its own atomicity protocol, so the accumulated run
			// flushes first.
			flushRun(i)
			t0 := d.K.Now()
			completions = append(completions, d.leaderProcess(d.billMsg(ctx, dm.msg), dm.msg, dm.txid, epochs)...)
			d.recordPhase("leader.total", d.K.Now()-t0)
		case OpReshardFence:
			// A reshard fence is a fold barrier too: the ack promises every
			// earlier message of this serialized queue has been fully
			// processed and distributed, and releases the coordinator.
			flushRun(i)
			d.ackFence(d.billSys(ctx, dm.msg.Shard), dm.msg)
		}
	}
	flushRun(len(msgs))
	return completions
}

// flushChunk runs the commit phase over one chunk, distributes the folded
// state, and completes every buffered operation in queue order.
func (d *Deployment) flushChunk(ctx cloud.Ctx, msgs []decodedMsg, later map[string]int, epochs map[cloud.Region][]int64) []watchCompletion {
	tChunk := d.K.Now()
	fold := newBatchFold()
	// Order rule 1 (see the package comment): only a lone message on a
	// single serialized shard may keep the paper's claim-after-flush.
	claimEarly := d.NumShards() > 1 || d.fanoutOn() || len(msgs) > 1
	for i, dm := range msgs {
		// Order rule 2: pop in the commit phase only for a later message
		// of this chunk whose awaitCommit needs the head.
		popEarly := slices.ContainsFunc(msgs[i+1:], func(nx decodedMsg) bool {
			return nx.msg.Op != OpDeregister && nx.msg.Path == dm.msg.Path
		})
		fold.results = append(fold.results, d.commitOne(d.billMsg(ctx, dm.msg), dm, fold, later, epochs, claimEarly, popEarly))
	}

	if !fold.empty() {
		// A one-message chunk's distribution is that request's own: its
		// legs open under the message's trace and bill to it. A larger
		// fold serves the whole chunk at once: its legs are trace-0
		// pipeline spans and its charges amortize across the chunk's
		// traces (untraced members keep their share in the system bucket).
		dctx := ctx
		var own *leaderMsg
		if len(msgs) == 1 {
			dctx, own = fold.results[0].ctx, &msgs[0].msg
		} else if d.costOn() {
			traces := make([]int64, 0, len(msgs))
			for _, dm := range msgs {
				traces = append(traces, costMsgTrace(dm.msg))
			}
			dctx = d.billFold(ctx, traces, msgs[0].msg.Shard, "")
		}
		// Every committed message's chain enters the flush stage together.
		for i, dm := range msgs {
			if fold.results[i].code == CodeOK {
				d.stageMsg(dm.msg, obs.StageFlush)
			}
		}
		t0 := d.K.Now()
		d.distributeFold(dctx, fold, epochs, false, own)
		d.recordPhase("leader.update", d.K.Now()-t0)
	}

	var completions []watchCompletion
	for i, dm := range msgs {
		r, msg := &fold.results[i], dm.msg
		if r.drop {
			continue
		}
		if msg.Op == OpDeregister {
			// Processed only after the flush: the ack's shard-FIFO position
			// put it behind the session's ephemeral deletions, and the
			// flush just distributed them.
			if d.deregAckComplete(r.ctx, msg) {
				d.notifyResult(msg, dm.txid, CodeOK, znode.Stat{})
			}
			continue
		}
		if r.code == CodeOK {
			if d.fanoutOn() {
				// The chunk's writes are readable: release this operation's
				// parked firings at the fan-out nodes.
				d.fanoutRelease(r.ctx, dm.txid)
			} else if !claimEarly {
				t0 := d.K.Now()
				r.fired = d.queryWatches(r.ctx, msg)
				d.recordPhase("leader.watchquery", d.K.Now()-t0)
			}
			for _, fw := range r.fired {
				if !claimEarly {
					// The paper's interleaving: enter each id into the epoch
					// counters right before launching its delivery.
					d.appendEpochs(r.ctx, []firedWatch{fw}, msg.Shard, epochs)
				}
				completions = append(completions, d.launchWatch(r.ctx, msg, fw, dm.txid))
			}
		}
		t0 := d.K.Now()
		d.notifyResult(msg, dm.txid, r.code, r.stat)
		d.recordPhase("leader.notify", d.K.Now()-t0)
		if r.code == CodeOK && !r.popped {
			d.popPending(r.ctx, msg, dm.txid, later[msg.Path] == 0)
		}
	}
	fold.release()
	// One total per chunk, the container of every phase above.
	d.recordPhase("leader.total", d.K.Now()-tChunk)
	return completions
}

// commitOne is the per-message commit phase: Algorithm 2's verification,
// plus whichever of the watch claim and the pending pop the chunk's order
// rules pull ahead of the flush. It folds the operation's effect and
// captures the Stat here, from this operation's own txid and version,
// before any later operation folds over the node.
func (d *Deployment) commitOne(ctx cloud.Ctx, dm decodedMsg, fold *batchFold, later map[string]int, epochs map[cloud.Region][]int64, claimEarly, popEarly bool) opResult {
	msg, txid := dm.msg, dm.txid
	if msg.Op == OpDeregister {
		return opResult{ctx: ctx} // completed after the flush, nothing to commit
	}
	later[msg.Path]--
	// ➊ Fetch the node's control record and verify our transaction is the
	// head of its pending list (➋ trying to commit on behalf of a crashed
	// follower when it is not).
	d.stageMsg(msg, obs.StageCommit)
	t0 := d.K.Now()
	node, committed := d.awaitCommit(ctx, msg, txid)
	d.recordPhase("leader.get", d.K.Now()-t0)
	if !committed {
		// Stranded by a reshard? A live follower saw its commit fail the
		// generation guard and owns the re-route — answering here would
		// race the retry's response. But a follower that died between push
		// and commit never retries (the push marked the request processed,
		// so queue redelivery dedups it away); its tell is the message's
		// own lock timestamps still on the node. Reclaiming those locks
		// decides the race exactly once.
		drop := d.staleDynMsg(ctx, msg, dynGen(msg)) && !d.reclaimFencedMsg(ctx, msg)
		return opResult{ctx: ctx, code: CodeSystemError, drop: drop}
	}

	var fired []firedWatch
	if claimEarly {
		t0 = d.K.Now()
		fired = d.claimWatches(ctx, msg, txid, epochs)
		d.recordPhase("leader.watchquery", d.K.Now()-t0)
	}

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

	if popEarly {
		d.popPending(ctx, msg, txid, later[msg.Path] == 0)
	}
	return opResult{ctx: ctx, code: CodeOK, stat: stat, fired: fired, popped: popEarly}
}

// distributeFold is ➌ for one fold: one coalesced invalidation record,
// the final state of every touched node, and one read-modify-write per
// parent, per region in parallel. own names the request whose span tree
// and bill the regional legs belong to (a one-message chunk); nil records
// them as trace-0 pipeline spans billed through ctx. atomicApply is the
// transaction commit point (package txn): node writes go through the
// store's AtomicApplier when it has one, becoming readable at a single
// instant; stores without multi-key transactions (the object store) fall
// back to writing in fold order, so readers observe a prefix of the
// transaction, never an arbitrary mix.
func (d *Deployment) distributeFold(ctx cloud.Ctx, fold *batchFold, epochs map[cloud.Region][]int64, atomicApply bool, own *leaderMsg) {
	if fold.empty() {
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
	// shared lock, held once across the whole flush: an interleaved RMW
	// from another shard would lose children, and a full-object write
	// racing another shard's child splice would revert the child list
	// (so under the lock it is refreshed from the system store, the
	// source of truth). Locks are taken in sorted path order: two flushes
	// on different shards touching the same shared paths then never
	// deadlock.
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
			region := string(s.Region())
			stamp := epochs[s.Region()]
			// One coalesced record per touched path, published before any
			// of the fold's writes become readable in this region: once a
			// new value is readable, the regional cache has already
			// dropped the old entry and raised the path's floor, so a
			// concurrent read of the pre-write value can never re-fill the
			// cache above the overwrite (package cache). A read in the
			// window between the two sees exactly what the direct path
			// would: the store's current value.
			if rc := d.CacheFor(s.Region()); rc != nil {
				tsp := d.legSpan(own, obs.SpanCacheInval, region)
				sp := invSlicePool.Get().(*[]cache.Invalidation)
				invs := fold.appendInvalidations((*sp)[:0], sharedPFs, stamp, d.cacheMapEpoch())
				rc.InvalidateBatch(d.legCtx(ctx, own, tsp, region), invs)
				*sp = invs[:0]
				invSlicePool.Put(sp)
				d.spanEnd(tsp)
			}
			tsp := d.legSpan(own, obs.SpanStoreWrite, region)
			wctx := d.legCtx(ctx, own, tsp, region)
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
				_ = aa.ApplyBatch(wctx, writes)
			} else {
				for _, p := range fold.order {
					nf := fold.nodes[p]
					if nf.del {
						_ = s.Delete(wctx, p)
					} else {
						_ = s.Write(wctx, nf.node, stamp)
					}
				}
			}
			d.spanEnd(tsp)
			// Creates and deletes also change the parent's child list,
			// which lives in the parent's node object: a read-modify-write
			// cycle, because object stores lack partial updates
			// (Section 3.2, Requirement #6).
			for _, p := range fold.parentOrder {
				pf := fold.parents[p]
				if pf.consumed {
					continue
				}
				d.applyParentFold(d.legCtx(ctx, own, 0, region), s, p, pf, stamp)
			}
		})
	}
	wg.Wait()

	// The shared parents' coalesced splices run after the regional writes,
	// still under the shared locks taken above. The per-region stamps
	// already hold the union of every shard's epoch list, so an in-flight
	// child-watch notification fired by any shard still holds reads of the
	// parent (Z4).
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

// legSpan opens one regional leg of a flush: a child of own's request, or
// a trace-0 pipeline span when the fold serves many requests at once.
func (d *Deployment) legSpan(own *leaderMsg, name, region string) int64 {
	if own == nil {
		return d.tspan(0, name, "", -1, region)
	}
	return d.tspan(d.msgTrace(*own), name, own.Path, own.Shard, region)
}

// legCtx bills a leg's charges into its span on own's trace; a shared
// fold's ctx already amortizes across the chunk (billFold).
func (d *Deployment) legCtx(ctx cloud.Ctx, own *leaderMsg, span int64, region string) cloud.Ctx {
	if own == nil {
		return ctx
	}
	return d.billSpan(ctx, costMsgTrace(*own), span, own.Shard, region)
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

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
//	          client; then, for the whole chunk, pop the pending
//	          transactions (➎)
//
// The chunks of a run are software-pipelined in two lanes on the one handler
// process. Only the flush touches the user stores and only the other steps
// touch the system store, so while chunk n's regional legs are in flight
// the handler, instead of parking, retires the pending pops chunk n−1 left
// behind and runs the commit phase of chunk n+1, then joins the flush and
// completes n:
//
//	user stores  ├──── flush n ─────┤            ├─── flush n+1 ────┤
//	handler      pop n−1, commit n+1, join · complete n · pop n, commit n+2, join · complete n+1
//
// Flushes never overlap and stay in queue order: the stores always hold a
// prefix of the total order (single system image). A chunk with no
// successor in its run — every one-message invocation — commits, flushes,
// completes and pops in Algorithm 2's order.
//
// A one-message chunk is Algorithm 2 with every read, write and condition
// in place and two steps moved off the critical path, each still meeting
// what its place was for:
//
//   - The first read of the control record (awaitCommit's first poll) rides
//     the invocation's opening read, one batched round trip with the epoch
//     counters (leader.go, open), instead of following it. The poll loop
//     tolerates a stale view — it only ever acts through a conditional
//     write or another read — and the epoch stamp is, as before, read
//     before any flush's legs start.
//   - A fired group's delivery is launched before its id is appended to the
//     epoch counters, not after (flushChunk). The id has to be in the
//     counters before the next flush reads its stamp and before the
//     writer's response leaves; both follow the append on the one handler
//     process.
//
// Three order rules say when a step leaves its place, each on something the
// code observes:
//
//   - Watch claim. Ids must be in the epoch counters before a value that
//     another writer may causally follow becomes readable (Z4). A lone
//     message on a single serialized shard keeps the paper's order (query
//     after the flush, each id entered next to the launch of its delivery);
//     several shards, the fan-out tier, or a chunk of several messages claim
//     before the flush (openChunk's claimEarly). Either way chunk n's ids are
//     entered before flush n+1 starts, and a flush reads its epoch stamp
//     before its legs start, so a claim prefetched under it cannot reach the
//     stamp. The query itself cannot move ahead of the flush on the paper's
//     order: a watch registered between an early query and the put's landing
//     would be armed on the old value and missed by this change (ROADMAP
//     1(f) — the claimEarly configurations have exactly that window).
//   - Pending pop. The next message's awaitCommit needs its txid at the
//     head of the node's pending list, so a message followed in the same
//     chunk by another on the same path pops in the commit phase. Every
//     other pop runs after the notify of every message of its chunk, off
//     any client's critical path: under the next flush, or at the end of
//     the run.
//   - Prefetched commit. A commit may run under the previous chunk's flush
//     only when no un-popped message ahead of it shares its path; its
//     verification is one read (peekCommit) and never pops, replays or
//     sleeps. The lane order under a flush is "pops of n−1, then commit of
//     n+1", so the only un-popped messages ahead are those of chunk n and
//     of n+1 itself, and awaitCommit still finds every earlier entry of
//     its path popped. Anything but "our txid is the head" leaves the
//     message, and the rest of its chunk, to the serial position after
//     complete n. Transaction messages, reshard fences (they end the run),
//     flushes under a shared-path lock and empty folds carry nothing.
//
// A batch redelivered at any point replays as it always did: no step is
// new, each is idempotent under its own condition (the pop on its txid at
// the head, the commit check on the pending list), a prefetch that finds an
// entry already consumed is simply abandoned, and the opening read is a
// read: taken again, it is the first poll again.
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
// (watch launch, notify, dereg ack) after the chunk's flush and popped when
// the chunk retires. Results are index-aligned with the chunk's messages.
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

	// A pipeline chunk's own state (unused by the transaction folds): its
	// messages, how far their commit phase got — results is index-aligned
	// with msgs and ends where the commit phase stands — and what the
	// deferred pops and the chunk's leader.total need once it completed.
	msgs       []decodedMsg
	claimEarly bool     // order rule 1
	t0         sim.Time // the commit phase began

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
	f.msgs, f.claimEarly = nil, false
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

// leaderRun is one invocation's pass through the pipeline: what every
// chunk shares, and the two neighbours of the chunk whose flush is in
// flight. It lives on the handler's stack; the chunks are pooled folds.
type leaderRun struct {
	d           *Deployment
	ctx         cloud.Ctx
	epochs      map[cloud.Region][]int64 // the epoch counters' mirror (open)
	completions []watchCompletion

	// The opening read's share of the first message (open): its control
	// record, awaitCommit's first poll, and the instant its commit phase
	// began. The first commitOne takes them.
	opening  sysNode
	openedAt sim.Time
	opened   bool

	done  *batchFold // chunk n−1: completed, its pending pops (➎) deferred
	ahead *batchFold // chunk n+1: next in the run, commit phase unfinished
}

// pipeline runs one invocation's messages through the pipeline: maximal
// runs between barriers, each cut into chunks of at most Config.MaxBatch
// messages (0 = the whole run).
func (p *leaderRun) pipeline(msgs []decodedMsg) {
	d, ctx, epochs := p.d, p.ctx, p.epochs
	for i := range msgs {
		if msgs[i].msg.Op == OpDelete {
			msgs[i].collect = collectable(msgs, i)
		}
	}
	start := 0 // the current run is msgs[start:i]
	for i, dm := range msgs {
		switch dm.msg.Op {
		case OpMulti, OpTxnCommit:
			// Transaction messages are fold barriers: their distribution
			// has its own atomicity protocol, so the accumulated run
			// flushes first.
			p.flushRun(msgs[start:i])
			start = i + 1
			if !dm.staged {
				d.stageMsg(dm.msg, obs.StageCommit)
			}
			t0 := d.K.Now()
			p.completions = append(p.completions, d.leaderProcess(d.billMsg(ctx, dm.msg), dm.msg, dm.txid, epochs)...)
			d.recordPhase("leader.total", d.K.Now()-t0)
		case OpReshardFence:
			// A reshard fence is a fold barrier too: the ack promises every
			// earlier message of this serialized queue has been fully
			// processed and distributed, and releases the coordinator.
			p.flushRun(msgs[start:i])
			start = i + 1
			d.ackFence(d.billSys(ctx, dm.msg.Shard), dm.msg)
		}
	}
	p.flushRun(msgs[start:])
}

// flushRun pipelines one maximal run between barriers. Each chunk's flush
// carries its two neighbours (underFlush); the last chunk's pops have no
// flush left to hide under and retire here, ahead of whatever barrier
// ended the run.
func (p *leaderRun) flushRun(run []decodedMsg) {
	size := p.d.Cfg.MaxBatch
	if size <= 0 {
		size = len(run)
	}
	for cur := p.openChunk(run, size); cur != nil; cur = p.ahead {
		run = run[len(cur.msgs):]
		p.ahead = p.openChunk(run, size)
		p.flushChunk(cur)
	}
	p.retire()
}

// openChunk takes the chunk at the head of run; nil once the run is spent.
func (p *leaderRun) openChunk(run []decodedMsg, size int) *batchFold {
	if len(run) == 0 {
		return nil
	}
	f := newBatchFold()
	f.msgs = run[:min(size, len(run))]
	// Order rule 1 (see the package comment): only a lone message on a
	// single serialized shard may keep the paper's claim-after-flush.
	f.claimEarly = p.d.NumShards() > 1 || p.d.fanoutOn() || len(f.msgs) > 1
	return f
}

// flushChunk finishes cur's commit phase where a prefetch left it (nowhere,
// for the first chunk of a run), distributes the folded state with the
// second lane under it, and completes every buffered operation in queue
// order. The chunk's pops stay behind for the next flush to carry.
func (p *leaderRun) flushChunk(cur *batchFold) {
	d, msgs := p.d, cur.msgs
	if len(cur.results) < len(msgs) {
		// The serial position: behind every pop ahead of it.
		p.retire()
		p.commit(cur, nil)
	}

	if !cur.empty() {
		// A one-message chunk's distribution is that request's own: its
		// legs open under the message's trace and bill to it. A larger
		// fold serves the whole chunk at once: its legs are trace-0
		// pipeline spans and its charges amortize across the chunk's
		// traces (untraced members keep their share in the system bucket).
		dctx := p.ctx
		var own *leaderMsg
		if len(msgs) == 1 {
			dctx, own = cur.results[0].ctx, &msgs[0].msg
		} else if d.costOn() {
			traces := make([]int64, 0, len(msgs))
			for _, dm := range msgs {
				traces = append(traces, costMsgTrace(dm.msg))
			}
			dctx = d.billFold(p.ctx, traces, msgs[0].msg.Shard, "")
		}
		// Every committed message's chain enters the flush stage together.
		for i, dm := range msgs {
			if cur.results[i].code == CodeOK {
				d.stageMsg(dm.msg, obs.StageFlush)
			}
		}
		t0 := d.K.Now()
		d.distributeFold(dctx, cur, p.epochs, false, own, p)
		d.recordPhase("leader.update", d.K.Now()-t0)
	}

	for i, dm := range msgs {
		r, msg := &cur.results[i], dm.msg
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
			} else if !cur.claimEarly {
				t0 := d.K.Now()
				r.fired = d.queryWatches(r.ctx, msg)
				d.recordPhase("leader.watchquery", d.K.Now()-t0)
			}
			for i, fw := range r.fired {
				p.completions = append(p.completions, d.launchWatch(r.ctx, msg, fw, dm.txid))
				if !cur.claimEarly {
					// The paper enters each id into the epoch counters right
					// before launching its delivery; here the update runs
					// behind the launch, off the write-to-callback path. The
					// id is still in before anything that needs it there: the
					// next flush's stamp and this write's response both follow
					// on this process (order rule 1).
					d.appendEpochs(r.ctx, r.fired[i:i+1], msg.Shard, p.epochs)
				}
			}
		}
		t0 := d.K.Now()
		d.notifyResult(msg, dm.txid, r.code, r.stat)
		d.recordPhase("leader.notify", d.K.Now()-t0)
	}
	// Every response is out before any of the chunk's pops runs. A flush
	// that could carry nothing (an empty fold, a shared-path lock) left the
	// pops of the chunk before; they go first.
	p.retire()
	p.done = cur
}

// underFlush is the second lane: what the handler process does, instead of
// parking, while cur's regional legs are in flight. The order is order
// rule 3's: the pops of the chunk before cur, then the prefetch of the
// chunk after it.
func (p *leaderRun) underFlush(cur *batchFold) {
	if pops := p.retire(); pops > 0 {
		p.d.Obs.Metrics.Inc(obs.Key{Component: "leader", Name: "pop_overlapped", Shard: cur.msgs[0].msg.Shard}, int64(pops))
	}
	if p.ahead != nil {
		p.commit(p.ahead, cur)
	}
}

// retire runs the deferred pending pops (➎) of the completed chunk, closes
// its leader.total — the container of every phase from its commit to here
// — and returns it to the pool. It reports how many pops it ran.
func (p *leaderRun) retire() (pops int) {
	f := p.done
	if f == nil {
		return 0
	}
	p.done = nil
	for i, dm := range f.msgs {
		if r := &f.results[i]; r.code == CodeOK && !r.popped {
			p.d.popPending(r.ctx, dm.key, dm.txid, dm.collect)
			pops++
		}
	}
	p.d.recordPhase("leader.total", p.d.K.Now()-f.t0)
	f.release()
	return pops
}

// collectable is the tombstone-GC lookahead for the delete at msgs[i]: a
// delete followed in the same invocation by another operation on the same
// path (create→delete→create) must not collect the node item — the later
// operation's follower commit may not have appended to the pending list
// yet, and collecting the item would strand that commit. Transaction
// targets count wherever the transaction sits in the invocation; at worst
// a tombstone lingers until the next delete's collection, the lock-guard
// precedent. The answer depends on the message list alone, so no order the
// lanes run in can change it.
func collectable(msgs []decodedMsg, i int) bool {
	path := msgs[i].msg.Path
	for j := range msgs {
		switch m := &msgs[j].msg; m.Op {
		case OpDeregister, OpReshardFence:
		case OpMulti, OpTxnCommit:
			if tm, err := decodeTxnMsg(m.NodeBlob); err == nil && slices.Contains(txnTargets(tm.Ops), path) {
				return false
			}
		default:
			if j > i && m.Path == path {
				return false
			}
		}
	}
	return true
}

// holdsPath reports whether a message of msgs commits on path: its entry
// sits in the path's pending list until it pops.
func holdsPath(msgs []decodedMsg, path string) bool {
	for i := range msgs {
		if msgs[i].msg.Op != OpDeregister && msgs[i].msg.Path == path {
			return true
		}
	}
	return false
}

// commit runs f's commit phase on from where it stands. In the serial
// position (under nil) that is to the end of the chunk. Under the flush of
// the chunk before, it is a prefetch and stops at the first message order
// rule 3 keeps back: one with an un-popped message on its path ahead of it
// — in under, or later in f, where order rule 2 would make it pop — or one
// whose txid is not at the head of its pending list yet.
func (p *leaderRun) commit(f, under *batchFold) {
	for i := len(f.results); i < len(f.msgs); i++ {
		dm := &f.msgs[i]
		// Order rule 2: pop in the commit phase only for a later message
		// of this chunk whose awaitCommit needs the head.
		popEarly := holdsPath(f.msgs[i+1:], dm.msg.Path)
		if under != nil && (popEarly || holdsPath(under.msgs, dm.msg.Path)) {
			return
		}
		if i == 0 {
			f.t0 = p.d.K.Now()
		}
		// The invocation's first message entered its commit stage ahead of
		// the opening read, and a message whose prefetch was abandoned is
		// still in it when the serial position takes it up again.
		if !dm.staged {
			p.d.stageMsg(dm.msg, obs.StageCommit)
			dm.staged = true
		}
		r, ok := p.commitOne(f, *dm, popEarly, under != nil)
		if !ok {
			return
		}
		f.results = append(f.results, r)
	}
}

// commitOne is the per-message commit phase: Algorithm 2's verification,
// plus whichever of the watch claim and the pending pop the chunk's order
// rules pull ahead of the flush. It folds the operation's effect and
// captures the Stat here, from this operation's own txid and version,
// before any later operation folds over the node. A prefetch that does not
// find the txid at the head of the pending list gives the message up
// (false) having done nothing but that one read.
func (p *leaderRun) commitOne(f *batchFold, dm decodedMsg, popEarly, prefetch bool) (opResult, bool) {
	d, msg, txid := p.d, dm.msg, dm.txid
	ctx := d.billMsg(p.ctx, msg)
	if msg.Op == OpDeregister {
		return opResult{ctx: ctx}, true // completed after the flush, nothing to commit
	}
	// ➊ Fetch the node's control record and verify our transaction is the
	// head of its pending list (➋ trying to commit on behalf of a crashed
	// follower when it is not).
	t0 := d.K.Now()
	var node sysNode
	var committed bool
	if prefetch {
		if node, committed = d.peekCommit(ctx, dm.key, txid); !committed {
			return opResult{}, false
		}
		d.Obs.Metrics.Inc(obs.Key{Component: "leader", Name: "commit_prefetched", Shard: msg.Shard}, 1)
	} else {
		// The invocation's first message was read by the opening read, which
		// is where its leader.get and its chunk's leader.total began.
		var first *sysNode
		if p.opened {
			first, t0, p.opened = &p.opening, p.openedAt, false
			f.t0 = t0
		}
		node, committed = d.awaitCommit(ctx, msg, dm.key, txid, first)
	}
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
		return opResult{ctx: ctx, code: CodeSystemError, drop: drop}, true
	}

	var fired []firedWatch
	if f.claimEarly {
		t0 = d.K.Now()
		fired = d.claimWatches(ctx, msg, txid, p.epochs)
		d.recordPhase("leader.watchquery", d.K.Now()-t0)
	}

	var stat znode.Stat
	switch {
	case msg.Op == OpDelete:
		f.foldDelete(msg.Path, txid)
		if msg.ParentPath != "" {
			f.foldParent(msg.ParentPath, msg.ChildAdd, msg.ChildDel, msg.Cversion, txid)
		}
	default:
		if n := d.buildUserNode(msg, txid, node); n != nil {
			stat = n.Stat
			f.foldWrite(msg.Path, n, txid)
			if msg.ParentPath != "" {
				f.foldParent(msg.ParentPath, msg.ChildAdd, msg.ChildDel, msg.Cversion, txid)
			}
		}
	}

	if popEarly {
		d.popPending(ctx, dm.key, txid, dm.collect)
	}
	return opResult{ctx: ctx, code: CodeOK, stat: stat, fired: fired, popped: popEarly}, true
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
// transaction, never an arbitrary mix. lane is the pipeline run whose
// second lane works while the regional legs are in flight (underFlush);
// nil — the transaction callers — parks until they join.
func (d *Deployment) distributeFold(ctx cloud.Ctx, fold *batchFold, epochs map[cloud.Region][]int64, atomicApply bool, own *leaderMsg, lane *leaderRun) {
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
	for si, s := range d.Stores {
		// The stamp is this flush's own: read before the legs start, so a
		// watch claim prefetched under them cannot reach it (Z4).
		stamp := epochs[s.Region()]
		wg.Add(1)
		d.K.Go(d.flushProcs[si], func() {
			defer wg.Done()
			region := string(s.Region())
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
	if lane != nil && len(lockPaths) == 0 {
		lane.underFlush(fold)
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

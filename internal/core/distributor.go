package core

// The distributor is the leader's one write pipeline: Algorithm 2 for every
// message, single op or multi(). Each step has exactly one implementation,
// and leaves its place in the paper's order only by a move its row admits:
//
//	step              function        admissible moves
//	➊/➋ commit check  awaitCommit     a single op's first poll rides the opening
//	                                  read (open); prefetched under the previous
//	                                  flush (rule 2)
//	➍ watch claim     queryWatches    rides the commit check's read, ahead of
//	                                  the flush; its clears go out with the
//	                                  epoch entry as one parallel round
//	                                  (leaderShard.round), joined before the
//	                                  message's commit phase ends on several
//	                                  shards; run under the flush on one,
//	                                  joined before the next commit check
//	                                  (commitOne) and the chunk's answers
//	  epoch entry     enterEpochs     in its claim's round: one write per
//	                                  region setting an entry per group the
//	                                  message fired; the mirror takes them
//	                                  as it starts
//	➌ flush           distributeFold  one leg per region (leaderShard.legs):
//	                                  invalidate the fenced objects → per
//	                                  object, write → install → per parent,
//	                                  the shared root's included, splice
//	                                  (flushLeg.write)
//	➍ delivery        launchWatch     fire and forget: the watch function
//	                                  waits out the shard's earlier entries
//	                                  its payload lists, then sends
//	  answer          notifyResult    —
//	➎ pop             popPending      run under the next flush; carried to the
//	                                  next invocation; in the commit phase
//	                                  (rule 1)
//	➏ epoch exit      watchHandler    the watch function's, once its sends
//	                                  are acknowledged: it removes its own
//	                                  entry from every region's epoch item
//
// One lane calls them in this order, chunk by chunk (flushChunk): a chunk
// answers before it pops. A message commits on a list of targets: a single
// op on its node, a multi() on its effectful ops' nodes, each awaited at
// its txid, confirmed by the read its watch claim rides, and popped.
//
// The watch claim reads nothing: a node's registrations live on its control
// record, so the read that shows a change's txid at the head of its pending
// list — the first read that can see the commit — returns the groups it
// fires, with its parent's record in the same round trip for a create or
// delete. A registration that lands after that read found the commit, and
// the reader that made it waits for a value at or past it (Frontier), so
// no value the claim missed is ever armed on. The ids enter the epoch
// counters' mirror as the claim's round starts, before any flush whose stamp
// must carry them (Z4): a flush reads its stamp before its legs start, so a
// claim prefetched under it cannot reach the stamp.
//
// The claim's clears — one per record whose groups fired — and its epoch
// entry touch different items and are unconditional, so their mutual order
// is free: they go out as one round. Where the round is joined depends on
// who can read its writes. With several shards it is joined before the
// message's commit phase ends: a reader that saw the flushed value can reach
// another shard's opening read, which must find the id, so the entry lands
// before the flush. On one shard the only readers of the epoch item are the
// shard's own next invocation and its later deliveries, which wait out the
// entry (watchHandler) and are launched after the round is joined, and the
// only readers of the cleared records
// that matter are the commit checks after this one, so the round runs under
// the flush and is joined in two places: at the top of every commit check
// (commitOne), so the next message of a chunk and a prefetch under the flush
// (rule 2) read the records cleared; and before the chunk completes
// (flushChunk), so no delivery can prompt a re-registration that races the
// clear, and the next invocation starts after both writes landed. An id in
// a stamp whose entry failed to land only makes a reader wait for a delivery
// that is launched anyway. One interleaving is new with several shards:
// another shard's opening read can see the entry set while the registration is
// still on the record. That read is concurrent with the change. Whatever is
// causally after the change learned of it through the flush's store write,
// the answer or the notification, all of them after the join, so it sees
// both writes. A shared path's claim is conditional, and which ids the
// message fires depends on it: it runs serially, ahead of the round
// (claimGroup).
//
// A chunk is one message — the paper's per-message distribution — or, with
// Config.BatchWrites, a whole run of single ops up to the next multi(). A
// multi() is a chunk of its own, and its flush is atomic (atomicApply). On
// object storage, atomic means readers see a prefix of the multi()'s op
// order; the fold writes in first-touch order, so a multi() folded behind a
// single op on one of its later paths would write that path first, and a
// reader could see a torn transaction. A chunk commits per message, folding
// each change into its batchFold, flushes the fold once (per region: one
// invalidation record of the objects the leg fences, the final state of
// every touched node, one child-list read-modify-write per parent, and
// each object installed in the cache right after its own store write),
// and completes per message in queue order. Only the
// flush touches the user stores, so the chunks of an
// invocation are pipelined on the one handler process: while flush n's legs
// are in flight the handler runs the pops chunk n−1 deferred and the commit
// phase of n+1 (underFlush). The pops of an invocation's last chunk are
// carried to the shard's next invocation, whose first flush runs them:
//
//	user stores  ├──── flush n ─────┤            ├─── flush n+1 ────┤
//	handler      pop n−1, commit n+1, join · complete n · pop n, commit n+2, join · complete n+1
//
// Flushes never overlap and stay in queue order: the stores always hold a
// prefix of the total order (single system image). Every overlap has one
// shape: a round of named bodies spawned through sim.WaitGroup.Go and joined
// before the step that depends on them — the flush legs, joined before the
// chunk completes; the watch claim's round, joined before the message's
// commit phase ends on several shards (the handler runs its first write
// itself) and before the next commit check and the chunk's answers on one;
// and the watch function's sends. The leader's bodies are bound once, and what its rounds and its
// pipeline keep from message to message lives in the shard's one slot
// (leaderShard). The order rules:
//
//  1. Pop. A message followed in its chunk by another on one of its targets
//     pops in the commit phase (commit); every other pop follows every
//     answer of its chunk. A commit check looks past a head whose pop is
//     deferred (pollCommit).
//  2. Prefetched commit. A commit runs under the previous flush only when no
//     un-popped message ahead of it shares one of its targets, as one read
//     that never acts (commitOne); anything else waits for the serial
//     position.
//
// A batch redelivered at any point replays step for step: each step is
// idempotent under its own condition, and a deferred pop's entry stays in
// the store as the durable "not yet popped" marker (carry).

import (
	"slices"
	"sync"

	"faaskeeper/internal/cache"
	"faaskeeper/internal/cloud"
	"faaskeeper/internal/obs"
	"faaskeeper/internal/sim"
	"faaskeeper/internal/txn"
	"faaskeeper/internal/znode"
)

// opResult is one message's buffered commit-phase outcome, completed
// (watch launch, notify, dereg ack) after the chunk's flush and popped when
// the chunk retires. Results are index-aligned with the chunk's messages.
type opResult struct {
	ctx     cloud.Ctx // the message's own billing context
	code    Code
	stat    znode.Stat
	results []txn.Result // a multi()'s per-op answers
	fired   []firedWatch
	popped  bool // ➎ already ran in the commit phase
}

// nodeFold is the final folded user-store state of one touched node. The
// object lives in the entry, which the pooled fold reuses: folding a write
// allocates no node.
type nodeFold struct {
	path string
	node znode.Node // object to write; zero when the final op deleted it
	txid int64      // newest txid folded into this path (invalidation floor)
}

// live reports whether the entry writes an object: every object has a path.
func (nf *nodeFold) live() bool { return nf.node.Path != "" }

// parentFold coalesces a chunk's child-list splices on one parent.
type parentFold struct {
	path     string
	present  map[string]bool // child name -> final presence, in op order
	names    []string        // first-touch order, for deterministic splicing
	cversion int32           // max over the folded operations
	pzxid    int64           // max txid over the folded operations
	consumed bool            // merged into a node write of the same fold
}

// batchFold accumulates the net effect of one chunk on the user stores.
// Operations fold in txid order (the queue's order), so "last write wins"
// per node and the child presence map reflects the final create/delete
// outcome even for create→delete→create chains.
type batchFold struct {
	// The touched nodes and parents, each in first-touch order, and the
	// index of each path's entry.
	nodes    []nodeFold
	parents  []parentFold
	nodeAt   map[string]int
	parentAt map[string]int

	// The chunk's own state: its messages, how far their commit phase got —
	// results is index-aligned with msgs and ends where the commit phase
	// stands — and what the deferred pops and the chunk's leader.total need
	// once it completed.
	msgs []decodedMsg
	t0   sim.Time // the commit phase began

	// results and the entries' slices ride the pooled fold, so a
	// steady-state flush allocates none of them.
	results []opResult
}

// batchFoldPool recycles the per-flush fold: every chunk takes one, and
// the maps' bucket arrays dominate its cost.
var batchFoldPool = sync.Pool{New: func() any {
	return &batchFold{nodeAt: map[string]int{}, parentAt: map[string]int{}}
}}

func newBatchFold() *batchFold { return batchFoldPool.Get().(*batchFold) }

// release returns the fold to the pool. Callers invoke it only once the
// flush holds no further references — after distributeFold's regional
// legs have all joined and the results are completed. A parent entry
// keeps its emptied map and names for the next fold that reaches it; the
// node entries are cleared, so the fold keeps no view of a message.
func (f *batchFold) release() {
	for i := range f.parents {
		pf := &f.parents[i]
		clear(pf.present)
		*pf = parentFold{present: pf.present, names: pf.names[:0]}
	}
	clear(f.nodes)
	clear(f.nodeAt)
	clear(f.parentAt)
	clear(f.results)
	f.nodes, f.parents, f.results = f.nodes[:0], f.parents[:0], f.results[:0]
	f.msgs = nil
	batchFoldPool.Put(f)
}

func (f *batchFold) empty() bool { return len(f.nodes) == 0 && len(f.parents) == 0 }

// foldWrite records path's newest object, the zero node for a delete; an
// earlier write or tombstone of the same path in this chunk is superseded.
func (f *batchFold) foldWrite(path string, n znode.Node, txid int64) {
	i, ok := f.nodeAt[path]
	if !ok {
		i = len(f.nodes)
		f.nodeAt[path] = i
		f.nodes = append(f.nodes, nodeFold{})
	}
	f.nodes[i] = nodeFold{path: path, node: n, txid: txid}
}

// foldParent applies one create/delete's child splice to the parent's
// coalesced state.
func (f *batchFold) foldParent(parent, childAdd, childDel string, cversion int32, txid int64) {
	i, ok := f.parentAt[parent]
	if !ok {
		i = len(f.parents)
		f.parentAt[parent] = i
		f.parents = slices.Grow(f.parents, 1)[:i+1]
		if f.parents[i].present == nil {
			f.parents[i].present = map[string]bool{}
		}
		f.parents[i].path = parent
	}
	pf := &f.parents[i]
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
	pf.cversion = max(pf.cversion, cversion)
	pf.pzxid = max(pf.pzxid, txid)
}

// foldChange folds one committed change: its node's object (buildUserNode)
// or tombstone, and its parent's splice. It returns the Stat the change's
// writer is answered with (zero for a delete or a check).
//
// A multi()'s set_data is the one change whose snapshot can predate changes
// committed at its own txid — earlier ops of the same multi(), which its
// speculative state applied without knowing the txid. An object such an op
// wrote keeps its czxid and pzxid, and a child list one changed has the
// txid as its pzxid. Single ops never share a txid, so neither rule touches
// them.
func (f *batchFold) foldChange(c change, txid int64) (stat znode.Stat) {
	switch c.Op {
	case OpDelete:
		f.foldWrite(c.Path, znode.Node{}, txid)
	case OpCreate, OpSetData:
		var n znode.Node
		if !buildUserNode(&n, c, txid) {
			return stat
		}
		if i, ok := f.nodeAt[c.Path]; ok {
			if prev := &f.nodes[i]; prev.txid == txid && prev.live() {
				n.Stat.Czxid, n.Stat.Pzxid = prev.node.Stat.Czxid, prev.node.Stat.Pzxid
			}
		}
		if i, ok := f.parentAt[c.Path]; ok && f.parents[i].pzxid == txid {
			n.Stat.Pzxid = txid
		}
		f.foldWrite(c.Path, n, txid)
		stat = n.Stat
	default:
		return stat
	}
	if c.ParentPath != "" {
		f.foldParent(c.ParentPath, c.ChildAdd, c.ChildDel, c.Cversion, txid)
	}
	return stat
}

// spliceInto applies a parent fold to a node object: the final child
// presences (idempotently — the object may already reflect some of them)
// and only-raised stamps (within a shard they are monotone anyway; on a
// shared root two shards may apply their updates out of global txid
// order). The shared root's object carries a child stamp per shard
// (znode.Node.Pzxids, one per shard since seedRoot): the fold raises its
// own shard's, the one that minted its txids (shardTxid).
func spliceInto(n *znode.Node, pf *parentFold) {
	for _, name := range pf.names {
		if pf.present[name] {
			if !slices.Contains(n.Children, name) {
				n.Children = append(n.Children, name)
			}
		} else {
			n.Children = slices.DeleteFunc(slices.Clone(n.Children), func(c string) bool { return c == name })
		}
	}
	n.Stat.Cversion = max(n.Stat.Cversion, pf.cversion)
	n.Stat.Pzxid = max(n.Stat.Pzxid, pf.pzxid)
	if len(n.Pzxids) > 0 {
		s := pf.pzxid % int64(len(n.Pzxids))
		n.Pzxids[s] = max(n.Pzxids[s], pf.pzxid)
	}
	n.Stat.NumChildren = int32(len(n.Children))
}

// leaderShard is what a shard's serialized leader keeps from message to
// message and from invocation to invocation: a shard's invocations never
// overlap, and neither do its flushes (one handler process runs them), so
// one slot per shard serves them all.
type leaderShard struct {
	// epochs (each region's mirror of the ids its epoch item lists, open),
	// entries (the names of the shard's entries the home region's item
	// lists) and fired (every group the invocation's messages fired,
	// queryWatches) are per invocation: reset ends each, and their arrays
	// stay for the next. prefix starts the shard's entry names.
	epochs  map[cloud.Region][]int64
	entries []string
	fired   []firedWatch
	prefix  string
	// pops holds the deferred pops (➎), oldest first, until they run: those
	// the shard's previous invocation carried (carry), then the completed
	// chunk's. Like lastSeq it stands for warm sandbox memory: a cold
	// invocation drops it (leaderHandler).
	pops []pendingPop
	// quiet is the second warm fact, set only on one shard: the epoch items
	// in the store list no entry. The previous invocation's last step set
	// it — it began with empty lists and fired nothing, so it entered no
	// entry and no delivery of its own can be in flight (leaderHandler) — so
	// the opening read skips the epoch items (open). Every invocation clears it first, so a crash or an
	// error leaves it unset, and a cold one does not use it: either just
	// reads the lists again. One leader queue poller runs the shard's
	// invocations one at a time, so a warm one runs in the sandbox of the
	// one before, whose memory this is.
	quiet bool
	// msgs is the invocation's decoded batch (leaderHandler): scratch,
	// reset by each.
	msgs  []decodedMsg
	round claimRound     // the watch-claim round (queryWatches)
	legs  []flushLeg     // one per user store, aligned with Deployment.Stores
	wg    *sim.WaitGroup // the flush legs join on it
}

// newLeaderShard builds shard s's slot, its legs named and their bodies
// bound once, so a steady-state flush spawns them without allocating.
func (d *Deployment) newLeaderShard(s int) *leaderShard {
	ls := &leaderShard{
		prefix: entryPrefix(s),
		epochs: make(map[cloud.Region][]int64, len(d.Stores)),
		round:  claimRound{d: d, wg: sim.NewWaitGroup(d.K)},
		legs:   make([]flushLeg, len(d.Stores)),
		wg:     sim.NewWaitGroup(d.K),
	}
	for i, s := range d.Stores {
		l := &ls.legs[i]
		l.d, l.store, l.region, l.rc = d, s, string(s.Region()), d.CacheFor(s.Region())
		l.proc, l.run = "leader-update-"+l.region, l.write
	}
	return ls
}

// reset ends an invocation: the lists keep their arrays, and the slot pins
// no message body, claimed group or payload until the next.
func (ls *leaderShard) reset() {
	clear(ls.msgs)
	clear(ls.fired)
	clear(ls.entries)
	ls.fired, ls.entries = ls.fired[:0], ls.entries[:0]
	for r, ids := range ls.epochs {
		ls.epochs[r] = ids[:0]
	}
}

// leaderRun is one invocation's pass through the pipeline: the shard's slot,
// what every chunk shares, and the two neighbours of the chunk whose flush
// is in flight. It lives on the handler's stack; the chunks are pooled
// folds.
type leaderRun struct {
	*leaderShard
	d     *Deployment
	ctx   cloud.Ctx
	shard int

	// The opening read's share of the first message (open): its control
	// record and its parent's, awaitCommit's first poll, and the instant its
	// commit phase began. The first commitOne takes them.
	opening  [2]sysNode
	openedAt sim.Time
	opened   bool

	done  *batchFold // chunk n−1: completed, its pops deferred
	ahead *batchFold // chunk n+1: next in the invocation, commit phase unfinished
}

// pendingPop is one pop (➎): the control record at key loses txid from the
// head of its pending list, gc lets the pop collect a tombstone
// (popPending; only a delete or a multi() leaves one), and ctx bills the
// request whose write it ends.
type pendingPop struct {
	ctx  cloud.Ctx
	key  string
	txid int64
	gc   bool
}

// pipeline runs one invocation's messages through the pipeline, chunk by
// chunk, each chunk's flush carrying its two neighbours (underFlush). The
// last chunk's pops are carried to the shard's next invocation.
//
// A delete's pops, and a multi()'s, may garbage collect a tombstone unless a
// later message of the invocation commits on one of its targets: that
// operation's follower commit may not have appended to the pending list
// yet, and collecting the item would strand it. The answer depends on the
// message list alone, so no order the steps run in can change it; at worst
// a tombstone lingers until the next delete's collection, the lock-guard
// precedent.
func (p *leaderRun) pipeline(msgs []decodedMsg) {
	for i := range msgs {
		if op := msgs[i].msg.Op; op == OpDelete || op == OpMulti {
			msgs[i].collect = !holdsTarget(msgs[i+1:], &msgs[i])
		}
	}
	for cur := p.openChunk(msgs); cur != nil; cur = p.ahead {
		msgs = msgs[len(cur.msgs):]
		p.ahead = p.openChunk(msgs)
		p.flushChunk(cur)
	}
	p.carry()
}

// openChunk takes the chunk at the head of msgs, nil once they are spent: one
// message, or under Config.BatchWrites the run of single ops up to the next
// multi(), which is a chunk of its own.
func (p *leaderRun) openChunk(msgs []decodedMsg) *batchFold {
	if len(msgs) == 0 {
		return nil
	}
	n := 1
	if p.d.Cfg.BatchWrites && msgs[0].msg.Op != OpMulti {
		for n < len(msgs) && msgs[n].msg.Op != OpMulti {
			n++
		}
	}
	f := newBatchFold()
	f.msgs = msgs[:n]
	return f
}

// flushChunk finishes cur's commit phase where a prefetch left it (nowhere,
// for an invocation's first chunk), distributes the folded state with the
// work underFlush runs under it — atomically for a multi() — and completes
// every buffered operation in queue order: deliveries launch, and answers
// leave, only after the flush, so a response in hand implies the write is
// readable (read-your-writes). The chunk's pops stay behind for the next
// flush to carry.
func (p *leaderRun) flushChunk(cur *batchFold) {
	d, msgs := p.d, cur.msgs
	if len(cur.results) < len(msgs) {
		// The serial position: behind every pop of this invocation ahead of
		// it. The carried pops — only the first chunk can find any — stay
		// for its flush: awaitCommit looks past a deferred head.
		if p.done != nil {
			p.retire()
		}
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
		d.distributeFold(dctx, cur, msgs[0].msg.Op == OpMulti, own, p)
		d.recordPhase("leader.update", d.K.Now()-t0)
	}

	// A claim round still in flight lands before any answer or delivery.
	p.round.join()
	for i, dm := range msgs {
		r, msg := &cur.results[i], dm.msg
		if msg.Op == OpDeregister {
			// Processed only after the flush: the ack's shard-FIFO position
			// put it behind the session's ephemeral deletions, and the
			// flush just distributed them.
			if d.deregAckComplete(r.ctx, msg) {
				d.notifyResult(msg, dm.txid, CodeOK, znode.Stat{}, nil)
			}
			continue
		}
		for _, fw := range r.fired {
			d.launchWatch(r.ctx, msg, fw)
		}
		t0 := d.K.Now()
		d.notifyResult(msg, dm.txid, r.code, r.stat, r.results)
		d.recordPhase("leader.notify", d.K.Now()-t0)
	}
	// Every response is out before any of the chunk's pops runs. A flush
	// that could carry nothing (an empty fold, a shared-path lock) left the
	// pops of the chunk before — or the carried ones; they go first.
	p.retire()
	p.done = cur
	for i := range msgs {
		dm := &msgs[i]
		if r := &cur.results[i]; r.code == CodeOK && !r.popped {
			for _, key := range dm.targetKeys() {
				p.pops = append(p.pops, pendingPop{ctx: r.ctx, key: key, txid: dm.txid, gc: dm.collect})
			}
		}
	}
}

// underFlush is what the handler process does, instead of parking, while
// cur's regional legs are in flight. The order is order rule 2's: the pops
// of the chunk before cur — for an invocation's first chunk, the pops
// carried from the previous invocation — then the prefetch of the chunk
// after it.
func (p *leaderRun) underFlush(cur *batchFold) {
	if pops := p.retire(); pops > 0 {
		p.d.Obs.Metrics.Inc(obs.Key{Component: "leader", Name: "pop_overlapped", Shard: cur.msgs[0].msg.Shard}, int64(pops))
	}
	if p.ahead != nil {
		p.commit(p.ahead, cur)
	}
}

// retire runs every deferred pop (➎), oldest first, and closes the
// completed chunk (closeDone). It reports how many pops it ran.
func (p *leaderRun) retire() (pops int) {
	for _, c := range p.pops {
		p.popPending(c)
	}
	pops = len(p.pops)
	p.pops = p.pops[:0]
	p.closeDone()
	return pops
}

// carry ends the invocation: the deferred pops — its last chunk's — are
// handed to the shard's next invocation, whose first flush runs them. A pop
// only has to follow its write's distribution and precede the next commit
// check on its path, and that check looks past a deferred head
// (pollCommit).
//
// A carried pop leaves its entry in the store, the durable "not yet popped"
// marker it always was, so a batch delivered again after its invocation
// completed still finds its txid at the head. Only one fact lives in warm
// leader memory: that the carried head was already distributed. A warm
// leader answers such a batch as the duplicate it is and runs the carried
// pop. A cold one — a new sandbox, or the retry of a crashed one — starts
// without the fact: it replays such a batch step for step, rewriting the
// same objects, and an entry whose carried pop it never learned of is
// cleared by the next write on its path, through awaitCommit's orphan pop.
func (p *leaderRun) carry() {
	p.closeDone() // the pops stay in the shard's slot
}

// closeDone closes the completed chunk's leader.total, the container of
// every phase from its commit to its pops — or, for an invocation's last
// chunk, to the invocation's end: it never spans the idle time until the
// next one — and returns the chunk to the pool.
func (p *leaderRun) closeDone() {
	if f := p.done; f != nil {
		p.done = nil
		p.d.recordPhase("leader.total", p.d.K.Now()-f.t0)
		f.release()
	}
}

// deferred reports whether txid's pop on key is deferred.
func (p *leaderRun) deferred(key string, txid int64) bool {
	return slices.ContainsFunc(p.pops, func(c pendingPop) bool { return c.key == key && c.txid == txid })
}

// popDeferred runs the deferred pop on key now, if there is one.
func (p *leaderRun) popDeferred(key string) {
	if i := slices.IndexFunc(p.pops, func(c pendingPop) bool { return c.key == key }); i >= 0 {
		p.popPending(p.pops[i])
		p.pops = slices.Delete(p.pops, i, i+1)
	}
}

// holdsTarget reports whether a message of msgs commits on a record dm
// commits on: its entry sits in that record's pending list until it pops.
// Every target of both counts, not a multi()'s Path, which is its anchor.
func holdsTarget(msgs []decodedMsg, dm *decodedMsg) bool {
	for _, key := range dm.targetKeys() {
		for i := range msgs {
			if slices.Contains(msgs[i].targetKeys(), key) {
				return true
			}
		}
	}
	return false
}

// commit runs f's commit phase on from where it stands. In the serial
// position (under nil) that is to the end of the chunk. Under the flush of
// the chunk before, it is a prefetch and stops at the first message order
// rule 2 keeps back: one with an un-popped message on one of its targets
// ahead of it — in under, or later in f, where order rule 1 would make it
// pop — or one whose txid is not at the head of every target's pending list
// yet. The order under a flush is "pops of n−1 (for an invocation's first
// chunk, the carried ones), then commit of n+1", so the only un-popped
// messages ahead are those of chunk n and of n+1 itself, and a later
// awaitCommit still finds every earlier entry of its targets popped.
func (p *leaderRun) commit(f, under *batchFold) {
	for i := len(f.results); i < len(f.msgs); i++ {
		dm := &f.msgs[i]
		// Order rule 1: pop in the commit phase only for a later message
		// of this chunk whose awaitCommit needs the head.
		popEarly := holdsTarget(f.msgs[i+1:], dm)
		if under != nil && (popEarly || holdsTarget(under.msgs, dm)) {
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
		r, ok := p.commitOne(f, dm, popEarly, under != nil)
		if !ok {
			return
		}
		f.results = append(f.results, r)
	}
}

// commitOne is the per-message commit phase: Algorithm 2's verification on
// every target, the watch claim on the records it confirmed, and the
// pending pops when order rule 1 pulls them ahead of the flush. It folds
// each change and captures its Stat here, from the change's own txid and
// version, before any later operation folds over the node, so each client
// receives its own Stat at any chunk size. A prefetch may do nothing it
// could regret under another chunk's flush: one read, and a txid not at the
// head of every target's pending list gives the message up (false).
func (p *leaderRun) commitOne(f *batchFold, dm *decodedMsg, popEarly, prefetch bool) (opResult, bool) {
	// The claim round of the message before lands before any record is read.
	p.round.join()
	d, msg, txid := p.d, dm.msg, dm.txid
	ctx := d.billMsg(p.ctx, msg)
	if msg.Op == OpDeregister {
		return opResult{ctx: ctx}, true // completed after the flush, nothing to commit
	}
	t0 := d.K.Now()
	keys, targets := dm.keys, dm.targetKeys()
	var nodeBuf [2]sysNode
	nodes := slices.Grow(nodeBuf[:0], len(keys))[:len(keys)] // index-aligned with keys
	committed := false
	if prefetch {
		d.readControls(ctx, keys, nodes)
		for i := range targets {
			if pending := nodes[i].Pending; len(pending) == 0 || pending[0] != txid {
				return opResult{}, false
			}
		}
		committed = true
		d.Obs.Metrics.Inc(obs.Key{Component: "leader", Name: "commit_prefetched", Shard: msg.Shard}, 1)
	} else {
		// The invocation's first message was read by the opening read, which
		// is where its leader.get and its chunk's leader.total began.
		var first []sysNode
		if p.opened {
			first, t0, p.opened = p.opening[:len(keys)], p.openedAt, false
			f.t0 = t0
		}
		committed = p.awaitCommit(ctx, targets, keys[len(targets):], txid, nodes, first, func() {
			d.replayCommit(ctx, msg, txid) // the follower died after its push
		})
	}
	d.recordPhase("leader.get", d.K.Now()-t0)
	if !committed {
		return opResult{ctx: ctx, code: CodeSystemError}, true
	}

	// ➍ rides the read that confirmed the commit: a registration it missed
	// landed after the commit, and its reader waits for this change. A group
	// one change of a multi() claimed is empty for the next.
	r := opResult{ctx: ctx, code: CodeOK, popped: popEarly}
	var one [1]change
	changes := msg.changes(&one)
	r.fired = p.queryWatches(ctx, changes, keys, nodes, txid)
	for _, c := range changes {
		stat := f.foldChange(c, txid)
		if msg.Op != OpMulti {
			r.stat = stat
			continue
		}
		// Every op of a multi() commits at txid, as a ZooKeeper multi shares
		// one zxid.
		res := txn.Result{Type: txn.OpType(c.Op), Path: c.Path, Code: txn.CodeOK, Stat: stat}
		if c.effectful() {
			res.Txid = txid
		}
		r.results = append(r.results, res)
	}

	if popEarly {
		for _, key := range targets {
			p.popDeferred(key) // a carried entry ahead of ours goes first
			p.popPending(pendingPop{ctx: ctx, key: key, txid: txid, gc: dm.collect})
		}
	}
	return r, true
}

// distributeFold is ➌ for one fold: per region in parallel, one
// coalesced invalidation record of the fenced objects, the final state of
// every touched node, one read-modify-write per parent — the shared root's
// too, under the root lock — and each object installed in the cache right
// after its store write (flushLeg.write).
// own names the request whose span tree
// and bill the regional legs belong to (a one-message chunk); nil records
// them as trace-0 pipeline spans billed through ctx. atomicApply is the
// transaction commit point (package txn): node writes go through the
// store's AtomicApplier when it has one, becoming readable at a single
// instant; stores without multi-key transactions (the object store) fall
// back to writing in fold order, so readers observe a prefix of the
// transaction, never an arbitrary mix. run is the invocation's run: its
// epoch mirror stamps the writes, its shard's legs carry them, and its
// handler works while they are in flight (underFlush).
func (d *Deployment) distributeFold(ctx cloud.Ctx, fold *batchFold, atomicApply bool, own *leaderMsg, run *leaderRun) {
	if fold.empty() {
		return
	}

	// Merge child-list splices into node objects rewritten in the same
	// batch: a per-parent RMW would read the store's pre-batch object and
	// either the splice or the data write would be lost. A parent deleted
	// in this batch drops its splices (its child list is moot). A shared
	// parent — the root of a sharded deployment — is left unconsumed: each
	// leg splices it with a RMW of its own after its node writes, under the
	// cross-shard lock.
	//
	// Cross-shard shared-path work — a data write to the root or a
	// create/delete splice under it — is serialized under the root lock,
	// held once across the whole flush: each is a read-modify-write of the
	// region's object (flushLeg.write), and an interleaved one from another
	// shard would lose children or revert the child list.
	lockRoot := false
	for i := range fold.parents {
		pf := &fold.parents[i]
		if d.route.Shared(pf.path) {
			lockRoot = true
			continue
		}
		j, ok := fold.nodeAt[pf.path]
		if !ok {
			continue
		}
		pf.consumed = true
		if nf := &fold.nodes[j]; nf.live() {
			spliceInto(&nf.node, pf)
			nf.txid = max(nf.txid, pf.pzxid)
		}
	}
	for i := range fold.nodes {
		if nf := &fold.nodes[i]; nf.live() && d.route.Shared(nf.path) {
			lockRoot = true
		}
	}
	if lockRoot {
		lock := d.acquireRootLock(ctx)
		defer func() { _ = d.Locks.Release(ctx, lock) }()
	}

	legs := run.legs
	for i := range legs {
		l := &legs[i]
		l.ctx, l.fold, l.own, l.atomicApply = ctx, fold, own, atomicApply
		// The stamp is this flush's own: read before the legs start, so a
		// watch claim prefetched under them cannot reach it (Z4).
		l.stamp = run.epochs[l.store.Region()]
		run.wg.Go(l.proc, l.run)
	}
	if !lockRoot {
		run.underFlush(fold)
	}
	run.wg.Wait()
}

// flushLeg is one region's share of a shard's flushes (➌), run as its own
// process: the region's store and cache node, and the name and body of its
// process, all fixed when the deployment is built (newLeaderShard).
type flushLeg struct {
	d      *Deployment
	store  UserStore
	region string
	rc     *cache.Regional // nil without a cache
	proc   string          // "leader-update-<region>"
	run    func()          // write, bound once

	// The flush it serves, set by distributeFold.
	ctx         cloud.Ctx
	fold        *batchFold
	stamp       []int64
	own         *leaderMsg
	atomicApply bool

	// Scratch the leg reuses from flush to flush: its invalidation record
	// (InvalidateBatch keeps none of it), the objects it writes and the
	// installs due after its last store op.
	invs     []cache.Invalidation
	objs     []Object
	installs []cache.Install
}

// write is one regional leg: the fold's nodes, then the parent splices no
// node write absorbed — the shared root's among them, under the root lock
// the flush holds, which a data write of the root builds on too
// (sharedObject) — one store op after another. Each object follows one
// rule in the region's cache. A fenced object is invalidated before the
// leg's first store op, in one round trip for all of them: a delete, so a
// reader that saw the node gone in the store cannot get it back from the
// cache, and every object of a leg that applies an atomic batch, which
// lands at one instant no per-object install can follow. A shared path is
// never installed, and fenced only in an atomic batch: readers read it from
// the store, past the cache (fkclient's fetch).
// Every other object is installed right after its own store write lands,
// before the leg's next store op starts, and its old entry stays served
// until then. So the cache never runs ahead of the store and lags it by at
// most the one object in flight: whatever a reader gets through the cache,
// a direct read issued just before that write landed could have got too.
// Without a cache the leg makes exactly its store ops.
func (l *flushLeg) write() {
	d, s, fold, ctx, own, stamp := l.d, l.store, l.fold, l.ctx, l.own, l.stamp
	aa, atomic := s.(AtomicApplier)
	atomic = atomic && l.atomicApply
	if l.rc != nil {
		l.invs = fold.appendInvalidations(l.invs[:0], atomic)
		if len(l.invs) > 0 {
			tsp := d.legSpan(own, obs.SpanCacheInval, l.region)
			l.rc.InvalidateBatch(d.legCtx(ctx, own, tsp, l.region), l.invs)
			d.spanEnd(tsp)
		}
	}
	// Each object is marshaled once, under this region's stamp: the store
	// keeps the blob, and the install carries the same one.
	objs := l.objs[:0]
	for i := range fold.nodes {
		switch nf := &fold.nodes[i]; {
		case !nf.live():
			objs = append(objs, Object{Path: nf.path})
		case d.route.Shared(nf.path):
			if o, ok := d.sharedObject(d.legCtx(ctx, own, 0, l.region), s, &nf.node, stamp); ok {
				objs = append(objs, o)
			}
		default:
			objs = append(objs, NewObject(&nf.node, stamp))
		}
	}
	l.objs = objs
	tsp := d.legSpan(own, obs.SpanStoreWrite, l.region)
	wctx := d.legCtx(ctx, own, tsp, l.region)
	if atomic {
		if aa.ApplyBatch(wctx, objs) == nil {
			for _, o := range objs {
				l.due(o)
			}
		}
	} else {
		for _, o := range objs {
			l.install() // the previous object's, before this store op starts
			if o.Node == nil {
				_ = s.Delete(wctx, o.Path)
			} else if s.Write(wctx, o) == nil {
				l.due(o)
			}
		}
	}
	d.spanEnd(tsp)
	l.install()
	// Creates and deletes also change the parent's child list, which lives
	// in the parent's node object: a read-modify-write cycle, because
	// object stores lack partial updates (Section 3.2, Requirement #6).
	// The epoch stamp already holds the ids of every shard's entries, so
	// an in-flight child-watch notification fired by any shard still
	// holds reads of the shared root (Z4).
	for i := range fold.parents {
		if pf := &fold.parents[i]; !pf.consumed {
			if o, ok := d.applyParentFold(d.legCtx(ctx, own, 0, l.region), s, pf, stamp); ok {
				l.due(o)
				l.install()
			}
		}
	}
}

// due queues the install of an object the leg's last store op wrote, at
// its freshness value, the value a reader's fill would carry. Deletes
// install nothing, and neither do shared paths, which no reader reads
// through a cache.
func (l *flushLeg) due(o Object) {
	if l.rc != nil && o.Node != nil && !l.d.route.Shared(o.Path) {
		l.installs = append(l.installs, cache.Install{Path: o.Path, Blob: o.Blob, Mzxid: o.Node.Fresh()})
	}
}

// install sends the installs due in one round trip to the region's cache
// node (package cache admits each one as it would a reader's fill, and
// raises its path's floor), so the next read of a written node is a hit.
func (l *flushLeg) install() {
	if len(l.installs) == 0 {
		return
	}
	tsp := l.d.legSpan(l.own, obs.SpanCacheInstall, l.region)
	l.rc.InstallBatch(l.d.legCtx(l.ctx, l.own, tsp, l.region), l.installs)
	l.d.spanEnd(tsp)
	clear(l.installs)
	l.installs = l.installs[:0]
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

// appendInvalidations assembles the batch's coalesced invalidation record
// for one region into invs (the leg's scratch): each path the leg fences
// once, at its newest folded txid — every deleted node, and with atomic
// every node and every parent no node write absorbed (a parent a node
// write absorbed is that write's).
func (f *batchFold) appendInvalidations(invs []cache.Invalidation, atomic bool) []cache.Invalidation {
	for i := range f.nodes {
		if nf := &f.nodes[i]; atomic || !nf.live() {
			invs = append(invs, cache.Invalidation{Path: nf.path, Mzxid: nf.txid})
		}
	}
	for i := range f.parents {
		if pf := &f.parents[i]; atomic && !pf.consumed {
			invs = append(invs, cache.Invalidation{Path: pf.path, Mzxid: pf.pzxid})
		}
	}
	return invs
}

// sharedObject is a data write of a shared path, a read-modify-write of the
// region's object like a splice: the write owns the data, version and
// mzxid, and the object keeps its child list and stamps, which only the
// splices of the shards that distributed them change. The fold's node is
// the follower's image, whose child list is the record's and may name
// another shard's committed but undistributed children; the legs share it,
// so it is only read.
func (d *Deployment) sharedObject(ctx cloud.Ctx, s UserStore, w *znode.Node, stamp []int64) (Object, bool) {
	n, _, err := s.Read(ctx, w.Path)
	if err != nil {
		return Object{}, false
	}
	n.Data, n.Stat.Version, n.Stat.Mzxid, n.Stat.DataLength = w.Data, w.Stat.Version, w.Stat.Mzxid, w.Stat.DataLength
	return NewObject(n, stamp), true
}

// applyParentFold is the batch's one read-modify-write per parent and
// region: read, apply the coalesced splices, raise the stamps, write
// back. It returns the object it wrote, if it wrote one.
func (d *Deployment) applyParentFold(ctx cloud.Ctx, s UserStore, pf *parentFold, stamp []int64) (Object, bool) {
	parent, _, err := s.Read(ctx, pf.path)
	if err != nil {
		return Object{}, false
	}
	spliceInto(parent, pf)
	o := NewObject(parent, stamp)
	return o, s.Write(ctx, o) == nil
}

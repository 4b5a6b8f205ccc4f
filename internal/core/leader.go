package core

import (
	"fmt"
	"slices"
	"strings"

	"faaskeeper/internal/cloud"
	"faaskeeper/internal/cloud/faas"
	"faaskeeper/internal/cloud/kv"
	"faaskeeper/internal/fksync"
	"faaskeeper/internal/obs"
	"faaskeeper/internal/sim"
	"faaskeeper/internal/txn"
	"faaskeeper/internal/znode"
)

// decodedMsg is one peeled leader-queue message with its derived txid.
type decodedMsg struct {
	msg  leaderMsg
	txid int64
	// keys are the control records the message's commit check reads, built
	// once for every read and pop of it (index): its targets first — the
	// records it commits on, each awaited at txid and popped after it: a
	// single op's node, a multi()'s effectful ops' nodes in first-touch order
	// — then the parents its creates and deletes splice that are no target,
	// whose child watches its claim fires. Nil for an ack. ctl backs a single
	// op's.
	keys    []string
	targets int
	ctl     [2]string
	// collect lets the pops of a delete, or of a multi(), garbage collect a
	// tombstone: nothing later in the invocation commits on any of its
	// targets (pipeline).
	collect bool
	// staged: the message is in its commit stage already — the invocation's
	// first message enters it ahead of the opening read, a message whose
	// prefetch was abandoned stays in it until the serial position.
	staged bool
}

// readControls is one strongly consistent round trip for the control records
// at keys, decoded into nodes (index-aligned); a missing record reads as the
// zero sysNode, with nothing pending and no watch registered.
func (d *Deployment) readControls(ctx cloud.Ctx, keys []string, nodes []sysNode) {
	var itemBuf [2]kv.Item
	items := slices.Grow(itemBuf[:0], len(keys))[:len(keys)]
	d.System.GetViews(ctx, keys, true, items)
	for i, it := range items {
		nodes[i] = decodeSysNode(it)
	}
}

// leaderHandler is Algorithm 2, one invocation of it: the steps of every
// message run in the distributor's one pipeline (distributor.go, whose
// package comment tables them); this function owns what is per invocation
// — decoding and the opening read. It waits for no watch delivery: each
// removes its own epoch entry (➏, watchHandler).
func (d *Deployment) leaderHandler(inv *faas.Invocation) error {
	ctx := inv.Ctx
	// A batch comes from exactly one shard's queue; decoding is free, so
	// peel the messages first, into the slot of the shard the first names.
	// The list never grows past its capacity: a message's keys point into it.
	var ls *leaderShard
	acksOnly := true
	for _, m := range inv.Messages {
		msg, err := decodeLeaderMsg(m.Body)
		if err != nil {
			continue
		}
		if ls == nil {
			ls = d.leaders[msg.Shard]
			ls.msgs = slices.Grow(ls.msgs[:0], len(inv.Messages))
		}
		acksOnly = acksOnly && msg.Op == OpDeregister
		ls.msgs = append(ls.msgs, decodedMsg{msg: msg, txid: shardTxid(m.SeqNo, msg.Shard, d.NumShards())})
		ls.msgs[len(ls.msgs)-1].index()
	}
	if ls == nil {
		return nil
	}
	msgs, shard := ls.msgs, ls.msgs[0].msg.Shard
	defer ls.reset()
	// The slot's word that the epoch lists are empty holds for this
	// invocation only if the sandbox is the one that left it; taken, it is
	// cleared until this invocation's last step sets it again.
	quiet := ls.quiet && !inv.Cold
	ls.quiet = false
	if d.costOn() {
		traces := make([]int64, 0, len(msgs))
		for _, dm := range msgs {
			traces = append(traces, costMsgTrace(dm.msg))
		}
		// The sandbox's GB-s and the batch-shared work below (the opening
		// read, epoch removals after watch deliveries) amortize across the
		// batch's requests; per-message phases re-sink to their own trace.
		inv.Bill = d.invBill(traces, shard)
		ctx = d.billFold(ctx, traces, shard, "")
	}
	// The pops the shard's previous invocation carried live in warm sandbox
	// memory. A new sandbox starts without them, and so does the retry of a
	// crashed one: their entries stay at the heads of their pending lists,
	// where awaitCommit's orphan pop clears them.
	if inv.Cold {
		ls.pops = ls.pops[:0]
	}
	// Crash at batch start, before any message is processed or any epoch
	// entered: redelivery replays the whole batch through awaitCommit's
	// orphan pop and commit replay. Later crash windows are unsafe to fake at
	// this granularity (a group claimed but not yet launched would lose its
	// notification and strand its epoch entry; a launched one strands
	// nothing), so leader crashes are injected only here.
	if d.crashAt(obs.StageCommit, msgs[0].msg.Session, msgs[0].msg.Seq) {
		ls.pops = ls.pops[:0]
		return errInjectedCrash
	}
	p := leaderRun{leaderShard: ls, d: d, ctx: ctx, shard: shard}
	empty := p.open(msgs, acksOnly, quiet)
	p.pipeline(msgs)
	// Algorithm 2's WaitAll is gone: the handler returns once its last chunk
	// answered and launched its deliveries, each of which removes its own
	// entry (➏). So on one shard the lists are surely empty now only if they
	// were at the start and the invocation fired nothing: the last step
	// leaves that word in the slot.
	ls.quiet = empty && len(ls.fired) == 0 && d.NumShards() == 1
	return nil
}

// open is the invocation's opening read: one batched round trip to the
// system store for the two things Algorithm 2 reads first and that do not
// depend on each other — the epoch counters and the first message's control
// record. That is one epoch item per region, whatever the shard count, plus
// the record: two items on the paper's deployment and on a 4-shard one.
//
// The epoch counters are maintained in the system store across invocations
// (functions are stateless) and mirrored in p.epochs while the batch runs.
// With several shards the per-region stamp is the ids of every shard's
// entries, all of them attributes of the region's one epoch item (epochKey):
// a strongly consistent read of it at batch start is an atomic snapshot that
// sees every watch id whose notification causally precedes this batch's
// writes (the client that triggered a write observed its previous response
// only after the firing shard set the entry), so reads of any node still
// hold for undelivered cross-shard notifications (Z4). On a multi-shard
// deployment, batches of pure deregistration acks never touch epochs and
// read nothing (the single-shard path keeps the read, as the paper's
// pipeline does).
//
// On one shard the leader is the only writer of entries, and the watch
// functions only remove them, so quiet — the word the warm sandbox's
// previous invocation left when it began with empty lists and fired nothing
// (leaderShard.quiet) — says the lists are empty: the read skips the epoch
// items and the mirror stays empty. It reports whether the lists were empty
// at the start, as read or as known. The shard's own entries on the home
// region's item also enter p.entries, for its deliveries to wait out
// (enterEpochs).
//
// The control record of a single op at the head of the batch — with its
// parent's, for a create or delete — becomes awaitCommit's first poll (a
// multi() at the head polls its targets itself). Taken here it is at worst
// a staler first poll of a loop that tolerates staleness — every later
// poll, the orphan pop and the commit replay read the store again — so a
// redelivered batch replays step for step. The message enters its commit
// stage first: the read is the start of its leader.get and leader.total.
func (p *leaderRun) open(msgs []decodedMsg, acksOnly, quiet bool) (empty bool) {
	d := p.d
	if acksOnly && d.NumShards() > 1 {
		return false
	}
	var keyBuf [4]string // one epoch item per region, the record and its parent's
	var itemBuf [len(keyBuf)]kv.Item
	keys := keyBuf[:0]
	if !quiet {
		for _, s := range d.Stores {
			keys = append(keys, d.epochKey(s.Region()))
		}
	}
	epochs := len(keys)
	head := &msgs[0]
	d.stageMsg(head.msg, obs.StageCommit)
	head.staged = true
	if head.msg.Op != OpMulti && head.keys != nil {
		keys = append(keys, head.keys...)
		p.opened, p.openedAt = true, d.K.Now()
	}
	items := slices.Grow(itemBuf[:0], len(keys))[:len(keys)]
	if len(keys) > 0 { // quiet, with a multi() or acks at the head: nothing to read
		d.System.GetViews(p.ctx, keys, true, items)
	}

	if p.opened {
		for i, it := range items[epochs:] {
			p.opening[i] = decodeSysNode(it)
		}
	}
	empty = true
	for ri, it := range items[:epochs] {
		r := d.Stores[ri].Region()
		p.epochs[r] = epochUnion(p.epochs[r], it)
		empty = empty && len(it) == 0
		for i := range it {
			if ri == 0 && strings.HasPrefix(it[i].Name, p.prefix) {
				p.entries = append(p.entries, it[i].Name)
			}
		}
	}
	return empty
}

// index builds the message's keys. It runs on the message in place, in the
// invocation's list: a single op's keys live in its own ctl.
func (dm *decodedMsg) index() {
	if dm.msg.Op == OpDeregister {
		return
	}
	dm.keys = dm.ctl[:0]
	add := func(path string) {
		if !slices.Contains(dm.keys, path) {
			dm.keys = append(dm.keys, path)
		}
	}
	var one [1]change
	changes := dm.msg.changes(&one)
	for _, c := range changes {
		if c.effectful() {
			add(c.Path)
		}
	}
	dm.targets = len(dm.keys)
	for _, c := range changes {
		if c.ParentPath != "" {
			add(c.ParentPath)
		}
	}
}

// targetKeys are the keys of the records the message commits on.
func (dm *decodedMsg) targetKeys() []string { return dm.keys[:dm.targets] }

// changes lists the changes the message commits: a multi()'s sub-ops, or a
// single op's own, which one backs.
func (m *leaderMsg) changes(one *[1]change) []change {
	if m.Op == OpMulti {
		return m.Ops
	}
	one[0] = m.change
	return one[:]
}

// recordOf returns path's record among nodes, index-aligned with keys; nil
// when the message's commit check read none.
func recordOf(keys []string, nodes []sysNode, path string) *sysNode {
	if i := slices.Index(keys, path); i >= 0 {
		return &nodes[i]
	}
	return nil
}

// popPending is step ➎ for every message kind: c.txid leaves the head of
// the pending list of the control record at c.key; c.gc lets the pop of a
// delete garbage collect the tombstone once the list is empty (the pipeline
// withholds it when a later operation in the same invocation targets the
// path, whose commit may not have appended to the pending list yet).
func (p *leaderRun) popPending(c pendingPop) {
	d, t0 := p.d, p.d.K.Now()
	it, err := d.System.Update(c.ctx, c.key, []kv.Update{kv.ListPopHead{Name: attrPending}},
		kv.NumListHeadEq{Name: attrPending, V: c.txid})
	if err == nil && c.gc {
		if after := decodeSysNode(it); !after.Exists && len(after.Pending) == 0 {
			_ = d.System.Delete(c.ctx, c.key, collectible)
		}
	}
	d.recordPhase("leader.pop", d.K.Now()-t0)
}

// collectible holds on a tombstone nothing needs any more: nothing pending,
// no watch registered — an exists watch armed on the deleted node fires
// when it is created again — and no lock held. The lock guard keeps the
// collection from racing a pipelined re-create: a follower validating
// create-after-delete holds the node lock from before its push until its
// commit, and deleting the item in that window would strand the commit (its
// conditional update needs the lock attribute to survive). A tombstone that
// fails it is simply left for the next delete's collection.
var collectible = kv.And{
	kv.Eq{Name: attrExists, V: kv.N(0)},
	kv.Eq{Name: attrPending, V: kv.NumList()},
	kv.AttrNotExists{Name: "lock"},
	// Each watch group absent, or emptied by a claim.
	kv.Or{kv.AttrNotExists{Name: attrWatchData}, kv.Eq{Name: attrWatchData, V: kv.StrList()}},
	kv.Or{kv.AttrNotExists{Name: attrWatchExists}, kv.Eq{Name: attrWatchExists, V: kv.StrList()}},
	kv.Or{kv.AttrNotExists{Name: attrWatchChild}, kv.Eq{Name: attrWatchChild, V: kv.StrList()}},
}

// deregAckComplete processes one shard's deregistration ack and reports
// whether the whole fanout is now complete (the caller then answers the
// client). Each copy is FIFO-ordered behind the session's ephemeral
// deletions on its shard, so completion implies every deletion has been
// distributed. The barrier is a system-store item — functions are
// stateless — holding "<deregID>/<shard>" markers: the atomic append is
// idempotent under queue-retry redelivery (markers are counted as a set)
// and markers from an abandoned earlier fanout carry a different id, so
// they can never satisfy this one.
func (d *Deployment) deregAckComplete(ctx cloud.Ctx, msg leaderMsg) bool {
	if msg.Fanout <= 1 {
		// Single-shard ack: the queue order alone is the barrier, exactly
		// the paper's unsharded deregistration path.
		return true
	}
	mark := fmt.Sprintf("%d/%d", msg.DeregID, msg.Shard)
	it, err := d.System.Update(ctx, deregKey(msg.Session),
		[]kv.Update{kv.StrListAppend{Name: attrDeregAcks, Vals: []string{mark}}}, nil)
	if err != nil {
		return false
	}
	prefix := fmt.Sprintf("%d/", msg.DeregID)
	seen := map[string]bool{}
	for _, m := range it.Get(attrDeregAcks).SL() {
		if strings.HasPrefix(m, prefix) {
			seen[m] = true
		}
	}
	if len(seen) < msg.Fanout {
		return false
	}
	_ = d.System.Delete(ctx, deregKey(msg.Session), nil)
	return true
}

// The commit check's budgets: a message polls opPolls times, and replays a
// dead committer's commit at the first poll from the third on that finds
// nothing pending.
const opPolls, replayPoll = 10, 2

// awaitCommit is the commit check (➊/➋) of every message. It resolves the
// race between the push (③, which intentionally precedes the commit ④) and
// the leader observing the transaction: it polls until txid heads the
// pending list of every key — the message's targets — recording each
// control record found so in nodes. A poll that finds nothing pending on a
// key — the commit may still be in flight, or its committer died after
// pushing — sleeps and polls again; the first such poll from replayPoll on
// runs replay instead, which replays the commit on the committer's behalf
// (➋: whichever of the two conditional commits lands first wins, and the
// next poll decides).
//
// also names the records the message's watch claim needs besides its
// targets (the parents its creates and deletes splice): every read of
// keys[0] takes them in the same round trip, and the read that confirms
// keys[0] — the first that can show the commit, so the first after it; a
// multi()'s commit is one transaction — records them in nodes after the
// targets'. first, when non-nil, is such a read somebody already paid for —
// the invocation's opening read — and stands in for the first one.
func (p *leaderRun) awaitCommit(ctx cloud.Ctx, keys, also []string, txid int64, nodes, first []sysNode, replay func()) bool {
	replayed := false
	for attempt := 0; attempt < opPolls; attempt++ {
		done, consumed, popped := p.pollCommit(ctx, keys, also, txid, nodes, first)
		first = nil
		switch {
		case done:
			return true
		case consumed:
			return false
		case popped:
			continue
		case attempt >= replayPoll && !replayed:
			replayed = true
			replay()
			continue
		}
		p.d.K.Sleep(sim.Time(attempt+1) * 2 * sim.Ms(1))
	}
	return false
}

// pollCommit is one poll of awaitCommit: it reads each key whose record is
// not in nodes yet, which txid at the head of its pending list confirms.
// Nothing pending leaves the key to the next poll (not done); a head past
// txid means our entry was consumed already, a duplicate delivery
// (consumed). A head below txid is an orphan of a
// transaction the leader abandoned, popped on the spot: without this a
// single lost transaction would wedge its node's pipeline forever. The poll
// ends at the orphan pop (popped, and the pop costs a poll); the next one
// reads only the keys not confirmed yet.
//
// A head whose pop this leader deferred (p.pops) is no orphan: it was
// distributed, only its pop is still to run, so the poll looks past it. Our
// txid right behind it commits the message at once — a write on the path
// just written costs no pop or re-read on its critical path, and the
// deferred pop runs under the flush as usual. Nothing behind it is a commit
// still in flight. Our own txid as that head is a batch delivered again
// after it completed: a duplicate. Anything else behind it (an orphan, a
// later txid) runs the deferred pop here, as an orphan pop.
func (p *leaderRun) pollCommit(ctx cloud.Ctx, keys, also []string, txid int64, nodes, first []sysNode) (done, consumed, popped bool) {
	done = true
	var keyBuf [2]string
	var readBuf [len(keyBuf)]sysNode
	for i, key := range keys {
		if len(nodes[i].Pending) > 0 {
			continue // confirmed by an earlier poll
		}
		read := first
		if read != nil {
			first = nil
		} else {
			batch := append(keyBuf[:0], key)
			if i == 0 {
				batch = append(batch, also...)
			}
			read = slices.Grow(readBuf[:0], len(batch))[:len(batch)]
			p.d.readControls(ctx, batch, read)
		}
		node := read[0]
		pending := node.Pending
		if len(pending) > 0 && p.deferred(key, pending[0]) {
			switch {
			case pending[0] == txid:
				return false, true, false
			case len(pending) == 1 || pending[1] == txid:
				pending = pending[1:]
			default:
				p.popDeferred(key)
				return false, false, true
			}
		}
		switch {
		case len(pending) == 0:
			done = false
		case pending[0] == txid:
			nodes[i] = node
			copy(nodes[len(keys):], read[1:])
		case pending[0] > txid:
			return false, true, false
		default:
			_, _ = p.d.System.Update(ctx, key, []kv.Update{kv.ListPopHead{Name: attrPending}},
				kv.NumListHeadEq{Name: attrPending, V: pending[0]})
			return false, false, true
		}
	}
	return done, false, false
}

// replayCommit is ➋: the leader runs the commit (④) of a follower that died
// after its push, rebuilt from the message (leaderMsg.plan): its changes,
// under the locks the follower held. The replay only succeeds while they are
// still in place, which is exactly the crashed-follower window.
func (d *Deployment) replayCommit(ctx cloud.Ctx, msg leaderMsg, txid int64) error {
	var one [1]change
	var items [2]planItem
	return d.commitPlan(ctx, msg.plan(&one, &items), txid)
}

// buildUserNode assembles in n the user-store object for one committed
// change: the node the follower marshaled from its snapshot under the
// locks, stamped with what only the txid decides — mzxid, and for a create
// czxid and pzxid — and the version the change carries. It reads no record:
// the control record may already reflect later commits (a child created
// since would leak its pzxid and its name into an object of an earlier
// txid), and the snapshot is exactly the state at this txid. False for a
// delete or a check (and an undecodable blob). The node's Data is a view
// into the blob, itself a view into the queue body nobody writes: the
// object's marshal is the one copy.
func buildUserNode(n *znode.Node, c change, txid int64) bool {
	if _, err := znode.UnmarshalView(c.NodeBlob, n); err != nil {
		return false
	}
	n.Stat.Mzxid = txid
	n.Stat.Version = c.Version
	if c.Op == OpCreate {
		n.Stat.Czxid, n.Stat.Pzxid = txid, txid
	}
	return true
}

// acquireRootLock takes the system-store timed lock serializing every
// write to the shared tree root's user-store object. It retries until
// acquired: the lease makes the lock recoverable after a crash, and
// skipping the update would permanently corrupt the root's child listing.
func (d *Deployment) acquireRootLock(ctx cloud.Ctx) fksync.Lock {
	for {
		l, _, err := d.Locks.AcquireWait(ctx, rootUpdateLockKey, 0)
		if err == nil {
			return l
		}
	}
}

// firedWatch is one claimed group: what it fires, and from its epoch entry
// on (enterEpochs) the payload of its delivery and its entry's name, a view
// into the payload.
type firedWatch struct {
	wid      int64
	event    EventType
	path     string
	sessions []string
	payload  []byte
	entry    string
}

// watchGroup is one watch list a change fires: its type and the event its
// delivery carries.
type watchGroup struct {
	wt    WatchType
	event EventType
}

// queryWatches is ➍ for the message at txid, in its commit phase, on the
// records its commit check confirmed: each effectful change's node's, and for
// a create or delete its parent's. It reads nothing — the records carry the
// registrations. It claims the fired (one-shot) groups, appending them to
// the invocation's list (p.fired), and gives each an epoch entry, so every
// value written afterwards carries its id (Z4). The
// writes of both go out as one parallel round (claimRound). With several
// shards it is joined before the commit phase ends. On one shard it is left
// in flight under the flush, and joined before the next commit check reads
// a record (commitOne) and before the chunk's answers and deliveries
// (flushChunk). A clear removes
// exactly the sessions the read returned: a registration that lands after
// the read found the change committed, and its reader waits for a value at
// or past it (Frontier), so it must stay armed for the next change. A group
// one change of a multi() claimed is empty for the next. It returns the
// message's groups, capped so that a later message's appends never reach
// them.
func (p *leaderRun) queryWatches(ctx cloud.Ctx, changes []change, keys []string, nodes []sysNode, txid int64) []firedWatch {
	d, n, t0 := p.d, len(p.fired), p.d.K.Now()
	round := &p.round
	round.begin(ctx)
	child := watchGroup{WatchChild, EventChildrenChanged}
	for _, c := range changes {
		if !c.effectful() {
			continue
		}
		node, parent := recordOf(keys, nodes, c.Path), recordOf(keys, nodes, c.ParentPath)
		switch c.Op {
		case OpSetData:
			p.fireGroups(ctx, c.Path, node, watchGroup{WatchData, EventDataChanged})
		case OpCreate:
			p.fireGroups(ctx, c.Path, node, watchGroup{WatchExists, EventCreated})
			p.fireGroups(ctx, c.ParentPath, parent, child)
		case OpDelete:
			p.fireGroups(ctx, c.Path, node,
				watchGroup{WatchData, EventDeleted}, watchGroup{WatchExists, EventDeleted})
			p.fireGroups(ctx, c.ParentPath, parent, child)
		}
	}
	fired := p.fired[n:len(p.fired):len(p.fired)]
	p.enterEpochs(fired, txid)
	round.issue(d.NumShards() > 1)
	d.recordPhase("leader.watchquery", d.K.Now()-t0)
	return fired
}

// fireGroups claims path's non-empty groups in rec, its record as read,
// appends them to the invocation's list (p.fired) and empties them in rec:
// a later change of the same multi() finds them
// claimed. Off shared paths the claim is one clear of the record in the
// message's round (claimRound.clear). Shared-path groups (the root of a
// multi-shard deployment) are claimed one by one, serially, ahead of the
// round (claimGroup): two shard leaders may race between the read and the
// clear there (shared paths are the only ones whose watches fire from more
// than one shard), firing the same group twice would consume a watch the
// client re-registered in its callback, and which ids the message fires
// depends on the outcome. Everywhere else the owning shard's leader is
// serialized and keeps the paper's one batched clear.
func (p *leaderRun) fireGroups(ctx cloud.Ctx, path string, rec *sysNode, groups ...watchGroup) {
	d := p.d
	for _, g := range groups {
		attr, sessions := watchAttrs[g.wt-1], rec.Watches[g.wt-1]
		rec.Watches[g.wt-1] = nil
		if d.route.Shared(path) {
			sessions = d.claimGroup(ctx, path, attr, sessions)
		} else if len(sessions) > 0 {
			p.round.clear(path, attr, sessions)
		}
		if len(sessions) == 0 {
			continue
		}
		p.fired = append(p.fired, firedWatch{
			wid:      WatchID(path, g.wt),
			event:    g.event,
			path:     path,
			sessions: sessions, // a view of the record, or of the claim's read: never written
		})
	}
}

// enterEpochs is the epoch entry of the groups in fired, which the message
// at txid claimed. Each gets an entry named by txid and its index
// (appendEntryName), and its delivery's payload, encoded now: it names the
// entry, and lists the shard's entries the home region's mirror holds
// (p.entries), every one fired earlier, which the delivery waits out before
// it sends (watchHandler), so a session gets a shard's notifications in
// txid order. The message's round takes one write per region setting every
// entry (claimRound.setEntries), and each region's mirror (p.epochs) takes
// the ids as the round starts, so the stamp of the flush that follows
// carries them (Z4). An id in a stamp whose write failed only makes a reader
// wait for a delivery that is launched anyway.
func (p *leaderRun) enterEpochs(fired []firedWatch, txid int64) {
	d, waits := p.d, p.entries
	if len(fired) == 0 {
		return
	}
	var name [32]byte
	for g := range fired {
		f := &fired[g]
		f.payload, f.entry = encodeWatchPayload(appendEntryName(name[:0], p.prefix, txid, g), watchPayload{
			WatchID: f.wid, Event: f.event, Path: f.path, Txid: txid, Sessions: f.sessions, Waits: waits,
		})
		p.entries = append(p.entries, f.entry)
	}
	for si, s := range d.Stores {
		r := s.Region()
		p.round.setEntries(d.epochKey(r), d.epochProcs[si], fired)
		for _, f := range fired {
			p.epochs[r] = append(p.epochs[r], f.wid)
		}
	}
}

// claimRound is one message's watch-claim writes (➍ and its epoch entry): a
// clear per non-shared record whose groups fired (fireGroups), then one
// write per region setting every entry the message fired (enterEpochs). The
// writes touch different items and are unconditional, so their mutual order
// is free. With several shards the handler issues the first itself, spawns
// the rest and joins them all before the message's commit phase ends
// (issue): a reader that saw the flushed value can reach another shard's
// opening read, so the entry lands first. On one shard the only readers of
// the epoch item are the shard's own next invocation and its later
// deliveries, so every write is spawned and the round is joined later
// (join), before the next commit check and before the chunk completes. Each shard has a round of its own, in its
// slot (leaderShard): a shard's invocations never overlap, while different
// shards' do. Its writes and their process bodies are kept from round to
// round, so a steady-state round allocates nothing. It joins on a group of
// its own: a prefetched commit issues it while the legs of the flush it runs
// under are counted on the slot's.
type claimRound struct {
	d   *Deployment
	wg  *sim.WaitGroup
	ctx cloud.Ctx
	// writes holds the round's writes, its first n, and spare ones.
	writes []*roundWrite
	n      int
}

// roundWrite is one write of a claim round: its updates on key, run in the
// handler's process or in one of its own named proc.
type roundWrite struct {
	round *claimRound
	proc  string
	key   string
	ups   []kv.Update // pointers into rm or sets
	rm    [len(watchAttrs)]kv.StrListRemove
	sets  []kv.Set
	run   func() // do, bound once
}

// claimProc names the process of a spawned clear; an epoch write's is
// Deployment.epochProcs' for its region.
const claimProc = "leader-claim"

// begin opens the message's round, empty.
func (r *claimRound) begin(ctx cloud.Ctx) {
	r.ctx, r.n = ctx, 0
}

// next takes the round's next write, on key under proc.
func (r *claimRound) next(key, proc string) *roundWrite {
	if r.n == len(r.writes) {
		w := &roundWrite{round: r, ups: make([]kv.Update, 0, len(watchAttrs))}
		w.run = w.do
		r.writes = append(r.writes, w)
	}
	w := r.writes[r.n]
	r.n++
	w.proc, w.key, w.ups = proc, key, w.ups[:0]
	return w
}

// clear adds the removal of sessions from group attr to key's clear, one
// write per record whatever groups of it fire.
func (r *claimRound) clear(key, attr string, sessions []string) {
	var w *roundWrite
	for _, x := range r.writes[:r.n] {
		if x.key == key {
			w = x
			break
		}
	}
	if w == nil {
		w = r.next(key, claimProc)
	}
	i := len(w.ups)
	w.rm[i] = kv.StrListRemove{Name: attr, Vals: sessions}
	w.ups = append(w.ups, &w.rm[i])
}

// setEntries adds the write on key that sets the entry of every group in
// fired, each a whole attribute holding the group's id.
func (r *claimRound) setEntries(key, proc string, fired []firedWatch) {
	w := r.next(key, proc)
	w.sets = w.sets[:0]
	for _, f := range fired {
		w.sets = append(w.sets, kv.Set{Name: f.entry, V: kv.N(f.wid)})
	}
	for i := range w.sets {
		w.ups = append(w.ups, &w.sets[i])
	}
}

// issue starts the round's writes in parallel. With wait, the handler runs
// the first itself and joins the round before it returns; a round of one
// write spawns nothing. Without, every write runs in a process of its own
// and the round is joined later (join).
func (r *claimRound) issue(wait bool) {
	first := 0
	if wait && r.n > 0 {
		first = 1
	}
	for _, w := range r.writes[first:r.n] {
		r.wg.Go(w.proc, w.run)
	}
	if first > 0 {
		r.writes[0].do()
		r.join()
	}
}

// join waits until the round's writes have landed; with none in flight it
// returns at once.
func (r *claimRound) join() {
	r.wg.Wait()
	r.ctx = cloud.Ctx{}
}

func (w *roundWrite) do() {
	_, _ = w.round.d.System.Update(w.round.ctx, w.key, w.ups, nil)
}

// claimGroup claims a shared path's watch group attr at key, starting from
// the sessions a read returned: it removes exactly them, on the condition
// that the group still holds exactly them. A failed condition means the
// group changed under the claim — another shard's leader claimed it, or a
// session registered — so it reads the group again and claims what it finds.
// A group is fired by one leader only, and no registration is removed unread.
// It returns the sessions claimed (none once the group is empty).
func (d *Deployment) claimGroup(ctx cloud.Ctx, key, attr string, sessions []string) []string {
	for len(sessions) > 0 {
		_, err := d.System.Update(ctx, key,
			[]kv.Update{kv.StrListRemove{Name: attr, Vals: sessions}}, kv.Eq{Name: attr, V: kv.StrList(sessions...)})
		if err == nil {
			return sessions
		}
		it, _ := d.System.GetView(ctx, key, true)
		sessions = it.Get(attr).SL()
	}
	return nil
}

// launchWatch starts one claimed group's delivery as a child span of the
// request that fired it, and returns at once: nobody waits for it. The
// delivery's whole cost — invocation, pushes, its epoch exit, the watch
// sandbox's GB-s — rides the propagated sink into that span, which closes
// as the invocation returns (deliveryReturned).
func (d *Deployment) launchWatch(ctx cloud.Ctx, msg leaderMsg, f firedWatch) {
	sp := d.tspan(d.msgTrace(msg), obs.SpanWatchDeliver, f.path, msg.Shard, "")
	wctx := d.billSpan(ctx, costMsgTrace(msg), sp, msg.Shard, "")
	d.Platform.InvokeAsync(wctx, FnWatch, f.payload, sp)
}

// deliveryReturned is the watch function's return hook: it closes the
// delivery's span.
func (d *Deployment) deliveryReturned(span int64, _ error) { d.spanEnd(span) }

// notifyResult is the leader's one answer to a client: a single op's code
// and Stat, or a multi()'s per-op results.
func (d *Deployment) notifyResult(msg leaderMsg, txid int64, code Code, stat znode.Stat, results []txn.Result) {
	d.stageMsg(msg, obs.StageRespond)
	resp := Response{
		Session: msg.Session, Seq: msg.Seq, Code: code, Path: msg.Path,
		Stat: stat, Txid: txid, MultiResults: results,
	}
	d.notify(msg.Session, SessionMsg{Kind: MsgResponse, Response: resp}, resp.wireSize())
}

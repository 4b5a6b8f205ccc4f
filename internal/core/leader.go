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

// watchCompletion is one launched watch delivery; the handler reaps every
// completion before it returns (➏).
type watchCompletion struct {
	wid int64
	fut *sim.Future[error]
	// span is the delivery's telemetry child span (0 with telemetry off),
	// opened at InvokeAsync and closed when the completion is reaped.
	span int64
}

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
// — decoding, the opening read, and the reaping of watch deliveries (➏).
func (d *Deployment) leaderHandler(inv *faas.Invocation) error {
	ctx := inv.Ctx
	// A batch comes from exactly one shard's queue; decoding is free, so
	// peel the messages first to learn the shard.
	msgs := make([]decodedMsg, 0, len(inv.Messages))
	shard := 0
	acksOnly := true
	for _, m := range inv.Messages {
		msg, err := decodeLeaderMsg(m.Body)
		if err != nil {
			continue
		}
		shard = msg.Shard
		acksOnly = acksOnly && msg.Op == OpDeregister
		msgs = append(msgs, decodedMsg{msg: msg, txid: shardTxid(m.SeqNo, msg.Shard, d.NumShards())})
		msgs[len(msgs)-1].index()
	}
	if len(msgs) == 0 {
		return nil
	}
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
	ls := d.leaders[shard]
	if inv.Cold {
		ls.pops = ls.pops[:0]
	}
	// Crash at batch start, before any message is processed or any epoch
	// entered: redelivery replays the whole batch through awaitCommit's
	// orphan pop and commit replay. Later crash windows are unsafe to fake at
	// this granularity (a watch already launched would strand its epoch
	// entry), so leader crashes are injected only here.
	if d.crashAt(obs.StageCommit, msgs[0].msg.Session, msgs[0].msg.Seq) {
		ls.pops = ls.pops[:0]
		return errInjectedCrash
	}
	p := leaderRun{leaderShard: ls, d: d, ctx: ctx, shard: shard}
	p.open(msgs, acksOnly)
	p.pipeline(msgs)
	// WaitAll(WatchCallback): every delivery completes before the function
	// returns, and its id leaves the shard's epoch list (➏).
	for _, c := range p.completions {
		_ = c.fut.Wait()
		d.spanEnd(c.span)
		d.exitEpochs(ctx, shard, []int64{c.wid})
	}
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
// With several shards the per-region stamp is the union over every shard's
// list, all of them attributes of the region's one epoch item (epochKey): a
// strongly consistent read of it at batch start is an atomic snapshot that
// sees every watch id whose notification causally precedes this batch's
// writes (the client that triggered a write observed its previous response
// only after the firing shard appended the id), so reads of any node still
// hold for undelivered cross-shard notifications (Z4). On a multi-shard
// deployment, batches of pure deregistration acks never touch epochs and
// read nothing (the single-shard path keeps the read, as the paper's
// pipeline does).
//
// The control record of a single op at the head of the batch — with its
// parent's, for a create or delete — becomes awaitCommit's first poll (a
// multi() at the head polls its targets itself). Taken here it is at worst
// a staler first poll of a loop that tolerates staleness — every later
// poll, the orphan pop and the commit replay read the store again — so a
// redelivered batch replays step for step. The message enters its commit
// stage first: the read is the start of its leader.get and leader.total.
func (p *leaderRun) open(msgs []decodedMsg, acksOnly bool) {
	d := p.d
	clear(p.epochs)
	if acksOnly && d.NumShards() > 1 {
		return
	}
	var keyBuf [4]string // one epoch item per region, the record and its parent's
	var itemBuf [len(keyBuf)]kv.Item
	keys := keyBuf[:0]
	for _, s := range d.Stores {
		keys = append(keys, d.epochKey(s.Region()))
	}
	head := &msgs[0]
	d.stageMsg(head.msg, obs.StageCommit)
	head.staged = true
	if head.msg.Op != OpMulti && head.keys != nil {
		keys = append(keys, head.keys...)
		p.opened, p.openedAt = true, d.K.Now()
	}
	items := slices.Grow(itemBuf[:0], len(keys))[:len(keys)]
	d.System.GetViews(p.ctx, keys, true, items)

	if p.opened {
		for i, it := range items[len(d.Stores):] {
			p.opening[i] = decodeSysNode(it)
		}
	}
	for ri, s := range d.Stores {
		p.epochs[s.Region()] = d.epochUnion(items[ri])
	}
}

// index builds the message's keys. It runs on the message in place, in the
// invocation's list: a single op's keys live in its own ctl.
func (dm *decodedMsg) index() {
	if dm.msg.Op == OpDeregister {
		return
	}
	dm.keys = dm.ctl[:0]
	add := func(path string) {
		if key := nodeKey(path); !slices.Contains(dm.keys, key) {
			dm.keys = append(dm.keys, key)
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
	for i, key := range keys {
		if key[len(nodeKeyPrefix):] == path {
			return &nodes[i]
		}
	}
	return nil
}

// popPending is step ➎ for every message kind: c.txid leaves the head of
// the pending list of the control record at c.key; c.gc lets the pop of a
// delete garbage collect the tombstone once the list is empty (the pipeline
// withholds it when a later operation in the same invocation targets the
// path, whose commit may not have appended to the pending list yet).
func (d *Deployment) popPending(c pendingPop) {
	t0 := d.K.Now()
	it, err := d.System.Update(c.ctx, c.key,
		[]kv.Update{popPendingHead},
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
			_, _ = p.d.System.Update(ctx, key,
				[]kv.Update{popPendingHead},
				kv.NumListHeadEq{Name: attrPending, V: pending[0]})
			return false, false, true
		}
	}
	return done, false, false
}

// replayCommit is ➋: the leader runs the commit (④) of a follower that died
// after its push, under the locks the follower held, rebuilt from the
// timestamps the message carries: every item a multi() locked (multiParts),
// or a single op's node, then its parent if the op has one. The replay only
// succeeds while they are still in place, which is exactly the
// crashed-follower window.
func (d *Deployment) replayCommit(ctx cloud.Ctx, msg leaderMsg, txid int64) {
	if msg.Op == OpMulti {
		_ = d.Locks.CommitUnlockTx(ctx, multiParts(msg, txid))
		return
	}
	held := []fksync.Lock{{Key: nodeKey(msg.Path), Timestamp: msg.LockTs}}
	if msg.ParentPath != "" {
		held = append(held, fksync.Lock{Key: nodeKey(msg.ParentPath), Timestamp: msg.ParentLockTs})
	}
	_ = d.commitLocked(ctx, held, msg, txid)
}

// buildUserNode assembles the user-store object for one committed change:
// the node the follower marshaled from its snapshot under the locks,
// stamped with what only the txid decides — mzxid, and for a create czxid
// and pzxid — and the version the change carries. It reads no record: the
// control record may already reflect later commits (a child created since
// would leak its pzxid and its name into an object of an earlier txid), and
// the snapshot is exactly the state at this txid. Nil for a delete or a
// check (and an undecodable blob).
func buildUserNode(c change, txid int64) *znode.Node {
	n, _, err := znode.Unmarshal(c.NodeBlob)
	if err != nil {
		return nil
	}
	n.Stat.Mzxid = txid
	n.Stat.Version = c.Version
	if c.Op == OpCreate {
		n.Stat.Czxid, n.Stat.Pzxid = txid, txid
	}
	return n
}

// exitEpochs is ➏: once their deliveries completed, wids leave the shard's
// list on every region's epoch item. An unconditional removal cannot fail:
// it never grows the item.
func (d *Deployment) exitEpochs(ctx cloud.Ctx, shard int, wids []int64) {
	for _, s := range d.Stores {
		_, _ = d.System.Update(ctx, d.epochKey(s.Region()),
			[]kv.Update{kv.ListRemove{Name: d.epochAttrs[shard], Vals: wids}}, nil)
	}
}

// refreshSharedFromSystem overwrites a shared object's child list (and
// raises its child stamps) from the system store, the source of truth.
// Must run under the path's shared lock: a full-object write racing
// another shard's child splice would otherwise revert the child list.
func (d *Deployment) refreshSharedFromSystem(ctx cloud.Ctx, path string, n *znode.Node) {
	it, ok := d.System.Get(ctx, nodeKey(path), true)
	if !ok {
		return
	}
	fresh := decodeSysNode(it)
	n.Children = fresh.Children
	n.Stat.NumChildren = int32(len(fresh.Children))
	if fresh.Cversion > n.Stat.Cversion {
		n.Stat.Cversion = fresh.Cversion
	}
	if fresh.Pzxid > n.Stat.Pzxid {
		n.Stat.Pzxid = fresh.Pzxid
	}
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

type firedWatch struct {
	wid      int64
	event    EventType
	path     string
	sessions []string
}

// watchGroup is one watch list a change fires: its type and the event its
// delivery carries.
type watchGroup struct {
	wt    WatchType
	event EventType
}

// queryWatches is ➍ for one message, in its commit phase, on the records
// its commit check confirmed: each effectful change's node's, and for a
// create or delete its parent's. It reads nothing — the records carry the
// registrations. It claims the fired (one-shot) groups, appending them to
// fired, and enters their ids into the shard's epoch counters, so every
// value written afterwards carries them (Z4). The writes of both go out as
// one parallel round (claimRound), joined before the commit phase ends. A
// clear removes exactly the sessions the read returned: a registration that
// lands after the read found the change committed, and its reader waits for
// a value at or past it (Frontier), so it must stay armed for the next
// change. A group one change of a multi() claimed is empty for the next.
func (p *leaderRun) queryWatches(ctx cloud.Ctx, changes []change, keys []string, nodes []sysNode, fired []firedWatch) []firedWatch {
	d, n, t0 := p.d, len(fired), p.d.K.Now()
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
			fired = p.fireGroups(ctx, c.Path, node, fired, watchGroup{WatchData, EventDataChanged})
		case OpCreate:
			fired = p.fireGroups(ctx, c.Path, node, fired, watchGroup{WatchExists, EventCreated})
			fired = p.fireGroups(ctx, c.ParentPath, parent, fired, child)
		case OpDelete:
			fired = p.fireGroups(ctx, c.Path, node, fired,
				watchGroup{WatchData, EventDeleted}, watchGroup{WatchExists, EventDeleted})
			fired = p.fireGroups(ctx, c.ParentPath, parent, fired, child)
		}
	}
	appends := p.appendEpochs(fired[n:])
	round.issue()
	for si, w := range appends {
		if w.err == nil {
			r := d.Stores[si].Region()
			p.epochs[r] = append(p.epochs[r], round.ids...)
		}
	}
	d.recordPhase("leader.watchquery", d.K.Now()-t0)
	return fired
}

// fireGroups claims path's non-empty groups in rec, its record as read, and
// empties them in rec: a later change of the same multi() finds them
// claimed. Off shared paths the claim is one clear of the record in the
// message's round (claimRound.clear). Shared-path groups (the root of a
// multi-shard deployment) are claimed one by one, serially, ahead of the
// round (claimGroup): two shard leaders may race between the read and the
// clear there (shared paths are the only ones whose watches fire from more
// than one shard), firing the same group twice would consume a watch the
// client re-registered in its callback, and which ids the message fires
// depends on the outcome. Everywhere else the owning shard's leader is
// serialized and keeps the paper's one batched clear.
func (p *leaderRun) fireGroups(ctx cloud.Ctx, path string, rec *sysNode, fired []firedWatch, groups ...watchGroup) []firedWatch {
	d := p.d
	for _, g := range groups {
		attr, sessions := watchAttrs[g.wt-1], rec.Watches[g.wt-1]
		rec.Watches[g.wt-1] = nil
		if d.route.Shared(path) {
			sessions = d.claimGroup(ctx, nodeKey(path), attr, sessions)
		} else if len(sessions) > 0 {
			p.round.clear(nodeKey(path), attr, sessions)
		}
		if len(sessions) == 0 {
			continue
		}
		fired = append(fired, firedWatch{
			wid:      WatchID(path, g.wt),
			event:    g.event,
			path:     path,
			sessions: append([]string(nil), sessions...),
		})
	}
	return fired
}

// appendEpochs is the epoch entry: it adds to the message's round one
// append per region (aligned with Deployment.Stores), each carrying every
// id in fired to the shard's list on the region's epoch item, and returns
// them; none when nothing fired. A region's mirror (p.epochs) takes the ids
// once its append landed (queryWatches), so the stamp of the flush that
// follows carries them.
func (p *leaderRun) appendEpochs(fired []firedWatch) []*roundWrite {
	d, round := p.d, &p.round
	if len(fired) == 0 {
		return nil
	}
	for _, f := range fired {
		round.ids = append(round.ids, f.wid)
	}
	first := round.n
	for si, s := range d.Stores {
		round.appendIDs(d.epochKey(s.Region()), d.epochProcs[si], d.epochAttrs[p.shard])
	}
	return round.writes[first:round.n]
}

// claimRound is one message's watch-claim writes (➍ and its epoch entry):
// a clear per non-shared record whose groups fired (fireGroups), then one
// append per region carrying every id the message fired (appendEpochs).
// The writes touch different items and are unconditional, so their mutual
// order is free: the handler issues the first itself, spawns the rest, and
// joins them all before the message's commit phase ends (issue). Each
// shard has a round of its own, in its slot (leaderShard): a shard's
// invocations never overlap, while different shards' do. Its writes and
// their process bodies are kept from round to round, so a steady-state
// round allocates nothing. It joins on a group of its own: a prefetched
// commit issues it while the legs of the flush it runs under are counted
// on the slot's.
type claimRound struct {
	d   *Deployment
	wg  *sim.WaitGroup
	ctx cloud.Ctx
	ids []int64 // every id the message fired, in firing order
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
	ups   []kv.Update // pointers into rm or app
	rm    [len(watchAttrs)]kv.StrListRemove
	app   kv.ListAppend
	err   error
	run   func() // do, bound once
}

// claimProc names the process of a spawned clear; an epoch append's is
// Deployment.epochProcs' for its region.
const claimProc = "leader-claim"

// begin opens the message's round, empty.
func (r *claimRound) begin(ctx cloud.Ctx) {
	r.ctx, r.ids, r.n = ctx, r.ids[:0], 0
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
	w.proc, w.key, w.ups, w.err = proc, key, w.ups[:0], nil
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

// appendIDs adds the append of the round's ids to list attr on key.
func (r *claimRound) appendIDs(key, proc, attr string) {
	w := r.next(key, proc)
	w.app = kv.ListAppend{Name: attr, Vals: r.ids}
	w.ups = append(w.ups, &w.app)
}

// issue runs the round's writes in parallel and joins them. A round of one
// write or none spawns nothing.
func (r *claimRound) issue() {
	ws := r.writes[:r.n]
	if len(ws) == 0 {
		return
	}
	for _, w := range ws[1:] {
		r.wg.Go(w.proc, w.run)
	}
	ws[0].do()
	r.wg.Wait()
	r.ctx = cloud.Ctx{}
}

func (w *roundWrite) do() {
	_, w.err = w.round.d.System.Update(w.round.ctx, w.key, w.ups, nil)
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
// request that fired it. The delivery's whole cost — invocation, pushes,
// the watch sandbox's GB-s — rides the propagated sink into that span.
func (d *Deployment) launchWatch(ctx cloud.Ctx, msg leaderMsg, f firedWatch, txid int64) watchCompletion {
	payload := watchPayload{
		WatchID: f.wid, Event: f.event, Path: f.path, Txid: txid, Sessions: f.sessions,
	}
	sp := d.tspan(d.msgTrace(msg), obs.SpanWatchDeliver, f.path, msg.Shard, "")
	wctx := d.billSpan(ctx, costMsgTrace(msg), sp, msg.Shard, "")
	return watchCompletion{wid: f.wid, fut: d.Platform.InvokeAsync(wctx, FnWatch, payload.encode()), span: sp}
}

// notifyResult is the leader's one answer to a client: a single op's code
// and Stat, or a multi()'s per-op results.
func (d *Deployment) notifyResult(msg leaderMsg, txid int64, code Code, stat znode.Stat, results []txn.Result) {
	d.stageMsg(msg, obs.StageRespond)
	resp := Response{
		Session: msg.Session, Seq: msg.Seq, Code: code, Path: msg.Path,
		Stat: stat, Txid: txid, MultiResults: results,
	}
	d.notify(msg.Session, resp, resp.wireSize())
}

func removeString(ss []string, s string) []string {
	out := ss[:0:0]
	for _, x := range ss {
		if x != s {
			out = append(out, x)
		}
	}
	return out
}

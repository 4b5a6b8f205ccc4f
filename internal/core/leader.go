package core

import (
	"fmt"
	"strings"

	"faaskeeper/internal/cloud"
	"faaskeeper/internal/cloud/faas"
	"faaskeeper/internal/cloud/kv"
	"faaskeeper/internal/fksync"
	"faaskeeper/internal/obs"
	"faaskeeper/internal/sim"
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
	// key is the system-store key of a create / set_data / delete's control
	// record (empty for every other op), built once for every read and pop
	// of the message.
	key string
	// collect lets a delete's pop garbage collect the tombstone: nothing
	// later in the invocation targets the path (collectable).
	collect bool
	// staged: the message is in its commit stage already — the invocation's
	// first message enters it ahead of the opening read, a message whose
	// prefetch was abandoned stays in it until the serial position.
	staged bool
}

// readControl is one strongly consistent read of the control record at key;
// a missing record reads as the zero sysNode, with nothing pending.
func (d *Deployment) readControl(ctx cloud.Ctx, key string) sysNode {
	it, _ := d.System.GetView(ctx, key, true)
	return decodeSysNode(it)
}

// leaderHandler is Algorithm 2: for each validated change it verifies the
// system-store commit (➊/➋), distributes the new data to every region's
// user store (➌), queries and fires watches (➍), notifies the client, and
// pops the per-node transaction (➎). Watch deliveries finish before the
// function returns, removing their ids from the epoch counters (➏). The
// per-message steps live in the distributor's one pipeline
// (distributor.go); this function owns what is per invocation — decoding,
// the opening read, and the reaping of watch deliveries.
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
		dm := decodedMsg{msg: msg, txid: shardTxid(m.SeqNo, msg.Shard, d.NumShards())}
		switch msg.Op {
		case OpDeregister:
		case OpCreate, OpSetData, OpDelete:
			dm.key = nodeKey(msg.Path)
			acksOnly = false
		default:
			acksOnly = false
		}
		msgs = append(msgs, dm)
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
	if inv.Cold {
		d.leaderCarry[shard] = d.leaderCarry[shard][:0]
	}
	// Crash at batch start, before any message is processed or any epoch
	// entered: redelivery replays the whole batch through awaitCommit's
	// orphan/TryCommit path. Later crash windows are unsafe to fake at
	// this granularity (a watch already launched would strand its epoch
	// entry), so leader crashes are injected only here.
	if d.crashAt(obs.StageCommit, msgs[0].msg.Session, msgs[0].msg.Seq) {
		d.leaderCarry[shard] = d.leaderCarry[shard][:0]
		return errInjectedCrash
	}
	p := leaderRun{d: d, ctx: ctx, shard: shard, carried: d.leaderCarry[shard]}
	p.open(msgs, acksOnly)
	p.pipeline(msgs)
	// WaitAll(WatchCallback): every delivery completes before the function
	// returns, and its id leaves the epoch counter (➏).
	for _, c := range p.completions {
		_ = c.fut.Wait()
		d.spanEnd(c.span)
		for _, s := range d.Stores {
			r := s.Region()
			_, err := d.System.Update(ctx, d.epochKey(r, shard),
				[]kv.Update{kv.ListRemove{Name: attrEpochList, Vals: []int64{c.wid}}}, nil)
			if err != nil {
				return err
			}
			p.epochs[r] = removeID(p.epochs[r], c.wid)
		}
	}
	return nil
}

// open is the invocation's opening read: one batched round trip to the
// system store for the two things Algorithm 2 reads first and that do not
// depend on each other — the epoch counters and the first message's control
// record.
//
// The epoch counters are maintained in the system store across invocations
// (functions are stateless) and mirrored in p.epochs while the batch runs.
// With several shards the per-region stamp is the union over every shard's
// list: a strongly consistent read at batch start sees every watch id whose
// notification causally precedes this batch's writes (the client that
// triggered a write observed its previous response only after the firing
// shard appended the id), so reads of any node still hold for undelivered
// cross-shard notifications (Z4). On a multi-shard deployment, batches of
// pure deregistration acks never touch epochs and read nothing (the
// single-shard path keeps the read, as the paper's pipeline does).
//
// The control record of a create / set_data / delete at the head of the
// batch becomes awaitCommit's first poll. Taken here it is at worst a
// staler first poll of a loop that tolerates staleness — every later poll,
// the orphan pop and the commit replay read the store again — so a
// redelivered batch replays step for step. The message enters its commit
// stage first: the read is the start of its leader.get and leader.total.
func (p *leaderRun) open(msgs []decodedMsg, acksOnly bool) {
	d := p.d
	p.epochs = d.leaderEpochs[p.shard]
	clear(p.epochs)
	n := d.NumShards()
	if acksOnly && n > 1 {
		return
	}
	var keyBuf [8]string // the paper's deployment reads two keys; a 4-shard one, five
	var itemBuf [len(keyBuf)]kv.Item
	keys := keyBuf[:0]
	for _, s := range d.Stores {
		for sh := 0; sh < n; sh++ {
			keys = append(keys, d.epochKey(s.Region(), sh))
		}
	}
	head := &msgs[0]
	d.stageMsg(head.msg, obs.StageCommit)
	head.staged = true
	if head.key != "" {
		keys = append(keys, head.key)
		p.opened, p.openedAt = true, d.K.Now()
	}
	items := itemBuf[:]
	if len(keys) > len(items) {
		items = make([]kv.Item, len(keys))
	}
	items = items[:len(keys)]
	d.System.GetViews(p.ctx, keys, true, items)

	if p.opened {
		p.opening = decodeSysNode(items[len(items)-1])
	}
	for ri, s := range d.Stores {
		// The items are read-only views and appendEpochs appends to the
		// mirror, so each region's lists are copied out.
		var ids []int64
		for _, it := range items[ri*n : (ri+1)*n] {
			ids = append(ids, it.Get(attrEpochList).NL...)
		}
		p.epochs[s.Region()] = ids
	}
}

// leaderProcess dispatches a transaction message — a fold barrier of the
// pipeline, distributed under package txn's own atomicity protocol.
func (d *Deployment) leaderProcess(ctx cloud.Ctx, msg leaderMsg, txid int64, epochs map[cloud.Region][]int64) []watchCompletion {
	tm, err := decodeTxnMsg(msg.NodeBlob)
	if err != nil {
		return nil
	}
	if msg.Op == OpMulti {
		// A single-shard multi(): the fast path's leader commit phase.
		return d.leaderProcessMulti(ctx, msg, tm, txid, epochs)
	}
	// One shard's part of a cross-shard transaction.
	return d.leaderTxnCommit(ctx, msg, tm, txid, epochs)
}

// popPending is step ➎: pop the transaction from the head of the pending
// list of the control record at key; gc lets the pop of a delete garbage
// collect the tombstone once the list is empty (the pipeline withholds it
// when a later operation in the same invocation targets the path, whose
// commit may not have appended to the pending list yet).
func (d *Deployment) popPending(ctx cloud.Ctx, key string, txid int64, gc bool) {
	t0 := d.K.Now()
	it, err := d.System.Update(ctx, key,
		[]kv.Update{popPendingHead},
		kv.NumListHeadEq{Name: attrPending, V: txid})
	if err == nil && gc {
		after := decodeSysNode(it)
		if !after.Exists && len(after.Pending) == 0 {
			// The lock guard keeps the collection from racing a pipelined
			// re-create: a follower validating create-after-delete holds
			// the node lock from before its push until its commit, and
			// deleting the item in that window would strand the commit
			// (its conditional update needs the lock attribute to
			// survive). A locked tombstone is simply left for the next
			// delete's collection.
			_ = d.System.Delete(ctx, key, kv.And{
				kv.Eq{Name: attrExists, V: kv.N(0)},
				kv.Eq{Name: attrPending, V: kv.NumList()},
				kv.AttrNotExists{Name: "lock"},
			})
		}
	}
	d.recordPhase("leader.pop", d.K.Now()-t0)
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
	for _, m := range it.Get(attrDeregAcks).SL {
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

// awaitCommit resolves the race between the push (③, which intentionally
// precedes the commit ④) and the leader observing the transaction. It
// polls the node's pending list, replays the commit on behalf of a
// follower that appears to have died (➋), and clears orphaned pending
// heads left behind by transactions the leader previously abandoned —
// without this last step a single lost transaction would wedge the node's
// pipeline forever. first, when non-nil, is a read of the record somebody
// already paid for — the invocation's opening read — and stands in for the
// first poll.
//
// A head this leader carried from its previous invocation (p.carried) is no
// orphan: it was distributed, only its pop is still to run. awaitCommit
// looks past it. Our txid right behind it commits the message at once — a
// write on the path just written costs no pop or re-read on its critical
// path; the carried pop runs under the flush as usual. Nothing behind it is
// a follower commit still in flight. Our own txid as the carried head is a
// batch delivered again after it completed: a duplicate. Anything else
// behind it (an orphan, a later txid) runs the carried pop here, and the
// next poll decides as before.
func (p *leaderRun) awaitCommit(ctx cloud.Ctx, dm decodedMsg, first *sysNode) (sysNode, bool) {
	d, msg, key, txid := p.d, dm.msg, dm.key, dm.txid
	const attempts = 10
	triedCommit := false
	for attempt := 0; attempt < attempts; attempt++ {
		var node sysNode
		if attempt == 0 && first != nil {
			node = *first
		} else {
			node = d.readControl(ctx, key)
		}
		pending := node.Pending
		if len(pending) > 0 && p.isCarried(key, pending[0]) {
			switch {
			case pending[0] == txid:
				return sysNode{}, false
			case len(pending) == 1:
				pending = nil
			case pending[1] == txid:
				return node, true
			default:
				p.popCarried(key)
				continue
			}
		}
		if len(pending) > 0 {
			head := pending[0]
			if head == txid {
				return node, true
			}
			if head < txid {
				// Orphan from an abandoned transaction: pop and retry.
				_, _ = d.System.Update(ctx, key,
					[]kv.Update{popPendingHead},
					kv.NumListHeadEq{Name: attrPending, V: head})
				continue
			}
			// head > txid: our entry was already consumed (a duplicate
			// delivery after a retry); treat as not committed.
			return sysNode{}, false
		}
		// Nothing pending: the follower's commit may still be in flight,
		// or the follower died after pushing. After a short grace period,
		// replay the commit ourselves (➋); whichever of the two
		// conditional commits lands first wins and the next poll decides.
		if attempt >= 2 && !triedCommit {
			triedCommit = true
			d.tryCommit(ctx, msg, txid)
			continue
		}
		d.K.Sleep(sim.Time(attempt+1) * 2 * sim.Ms(1))
	}
	return sysNode{}, false
}

// peekCommit is awaitCommit for a prefetch, which runs under another
// chunk's flush and may do nothing it could regret there: one read, true
// only when txid already heads the pending list. It never pops an orphan,
// replays a commit or sleeps — anything else is the serial position's.
func (d *Deployment) peekCommit(ctx cloud.Ctx, key string, txid int64) (sysNode, bool) {
	node := d.readControl(ctx, key)
	return node, len(node.Pending) > 0 && node.Pending[0] == txid
}

// msgLocks rebuilds the locks a single-op message's follower held from the
// timestamps it carries: the node's, then the parent's if the op has one.
func msgLocks(msg leaderMsg) []fksync.Lock {
	held := []fksync.Lock{{Key: nodeKey(msg.Path), Timestamp: msg.LockTs}}
	if msg.ParentPath != "" {
		held = append(held, fksync.Lock{Key: nodeKey(msg.ParentPath), Timestamp: msg.ParentLockTs})
	}
	return held
}

// tryCommit replays the follower's conditional commit using the lock
// timestamps carried in the message. It only succeeds while the original
// locks are still in place, which is exactly the crashed-follower window.
func (d *Deployment) tryCommit(ctx cloud.Ctx, msg leaderMsg, txid int64) bool {
	return d.commitLocked(ctx, msgLocks(msg), msg, txid) == nil
}

// buildUserNode assembles the user-store object for one committed change:
// the follower's marshaled node patched with the transaction stamps only
// the leader knows. The version comes from the message, not from the
// system store: with pipelined writes the store may already reflect later
// commits. Nil for deletes (and undecodable blobs).
func (d *Deployment) buildUserNode(msg leaderMsg, txid int64, node sysNode) *znode.Node {
	if msg.Op == OpDelete {
		return nil
	}
	n, _, err := znode.Unmarshal(msg.NodeBlob)
	if err != nil {
		return nil
	}
	n.Stat.Mzxid = txid
	n.Stat.Version = msg.Version
	n.Stat.Czxid = node.Czxid
	if msg.Op == OpCreate {
		n.Stat.Czxid = txid
		n.Stat.Version = 0
	}
	n.Stat.Cversion = node.Cversion
	n.Stat.Pzxid = node.Pzxid
	n.Stat.DataLength = int32(len(n.Data))
	n.Children = node.Children
	n.Stat.NumChildren = int32(len(node.Children))
	return n
}

// appendEpochs enters fired watch ids into the shard's per-region epoch
// counters (and the batch's in-memory mirror).
func (d *Deployment) appendEpochs(ctx cloud.Ctx, fired []firedWatch, shard int, epochs map[cloud.Region][]int64) {
	for _, f := range fired {
		for _, s := range d.Stores {
			r := s.Region()
			_, err := d.System.Update(ctx, d.epochKey(r, shard),
				[]kv.Update{kv.ListAppend{Name: attrEpochList, Vals: []int64{f.wid}}}, nil)
			if err != nil {
				continue
			}
			epochs[r] = append(epochs[r], f.wid)
		}
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

// queryWatches reads the watch registrations touched by this operation and
// clears the fired (one-shot) groups. A clear removes exactly the sessions
// the read returned: a registration that lands between the read and the
// clear belongs to a reader that may already hold the new value, and must
// stay armed for the next change. Shared-path watch groups (the root of a
// multi-shard deployment) are claimed (claimGroup): two shard leaders may
// race between the read and the clear there (shared paths are the only ones
// whose watches fire from more than one shard), and firing the same group
// twice would consume a watch the client re-registered in its callback.
// Everywhere else the owning shard's leader is serialized and keeps the
// paper's one batched clear.
func (d *Deployment) queryWatches(ctx cloud.Ctx, msg leaderMsg) []firedWatch {
	var fired []firedWatch
	collect := func(path string, pairs []struct {
		attr  string
		wt    WatchType
		event EventType
	}) {
		it, ok := d.System.GetView(ctx, watchKey(path), true)
		if !ok {
			return
		}
		var clear []kv.Update
		for _, p := range pairs {
			sessions := it.Get(p.attr).SL
			if d.route.Shared(path) {
				sessions = d.claimGroup(ctx, watchKey(path), p.attr, sessions)
			} else if len(sessions) > 0 {
				clear = append(clear, kv.StrListRemove{Name: p.attr, Vals: sessions})
			}
			if len(sessions) == 0 {
				continue
			}
			fired = append(fired, firedWatch{
				wid:      WatchID(path, p.wt),
				event:    p.event,
				path:     path,
				sessions: append([]string(nil), sessions...),
			})
		}
		if len(clear) > 0 {
			_, _ = d.System.Update(ctx, watchKey(path), clear, nil)
		}
	}
	type pair = struct {
		attr  string
		wt    WatchType
		event EventType
	}
	switch msg.Op {
	case OpSetData:
		collect(msg.Path, []pair{{attrWatchData, WatchData, EventDataChanged}})
	case OpCreate:
		collect(msg.Path, []pair{{attrWatchExists, WatchExists, EventCreated}})
		collect(msg.ParentPath, []pair{{attrWatchChild, WatchChild, EventChildrenChanged}})
	case OpDelete:
		collect(msg.Path, []pair{
			{attrWatchData, WatchData, EventDeleted},
			{attrWatchExists, WatchExists, EventDeleted},
		})
		collect(msg.ParentPath, []pair{{attrWatchChild, WatchChild, EventChildrenChanged}})
	}
	return fired
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
		sessions = it.Get(attr).SL
	}
	return nil
}

// claimWatches is the claim half of ➍, run before the change is readable:
// the fired groups are claimed and their ids entered into the epoch
// counters, so every value written afterwards carries them (Z4).
func (d *Deployment) claimWatches(ctx cloud.Ctx, msg leaderMsg, epochs map[cloud.Region][]int64) []firedWatch {
	fired := d.queryWatches(ctx, msg)
	d.appendEpochs(ctx, fired, msg.Shard, epochs)
	return fired
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

func (d *Deployment) notifyResult(msg leaderMsg, txid int64, code Code, stat znode.Stat) {
	d.stageMsg(msg, obs.StageRespond)
	resp := Response{
		Session: msg.Session, Seq: msg.Seq, Code: code, Path: msg.Path,
		Stat: stat, Txid: txid,
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

func removeID(ids []int64, id int64) []int64 {
	out := ids[:0:0]
	for _, x := range ids {
		if x != id {
			out = append(out, x)
		}
	}
	return out
}

package core

import (
	"errors"
	"fmt"

	"faaskeeper/internal/cloud"
	"faaskeeper/internal/cloud/faas"
	"faaskeeper/internal/cloud/kv"
	"faaskeeper/internal/cloud/queue"
	"faaskeeper/internal/fksync"
	"faaskeeper/internal/obs"
	"faaskeeper/internal/wire"
	"faaskeeper/internal/znode"
)

// errInjectedCrash simulates a follower dying between the leader push and
// the system-store commit; the queue trigger retries the batch.
var errInjectedCrash = errors.New("core: injected follower crash")

// followerHandler is Algorithm 1: for every request in the batch, lock the
// touched nodes (①), validate the operation (②), push the validated change
// to the leader queue (③), and commit it to the system store together with
// the lock release (④).
func (d *Deployment) followerHandler(inv *faas.Invocation) error {
	var traces []int64
	if d.costOn() {
		// The sandbox's GB-s charge amortizes over the whole batch; the
		// splitter is installed on exit so it covers exactly the requests
		// that ran (including a partial batch ended by a crash).
		defer func() { inv.Bill = d.invBill(traces, 0) }()
	}
	for _, m := range inv.Messages {
		req, err := DecodeRequest(m.Body)
		if err != nil {
			continue // malformed message: drop, never poison the queue
		}
		ctx := inv.Ctx
		if d.costOn() {
			traces = append(traces, costReqTrace(req))
			ctx = d.billReq(ctx, req, 0)
		}
		if err := d.processRequest(ctx, req); err != nil {
			return err
		}
	}
	return nil
}

func (d *Deployment) processRequest(ctx cloud.Ctx, req Request) error {
	// Warm-state deduplication: queue retries redeliver whole batches, and
	// a request that already went through must not be applied twice.
	if req.Seq > 0 && d.lastSeq[req.Session] >= req.Seq {
		return nil
	}
	// Crash before any work: the whole batch is redelivered and replayed
	// from scratch (nothing was locked, pushed, or committed yet).
	if d.crashAt(obs.StageValidate, req.Session, req.Seq) {
		return errInjectedCrash
	}
	d.stageReq(req, obs.StageValidate)
	t0 := d.K.Now()
	var err error
	switch req.Op {
	case OpCreate, OpSetData, OpDelete:
		if _, err = d.retryStale(ctx, req); errors.Is(err, errStaleRoute) {
			d.respondFailure(req, CodeSystemError)
			err = nil
		}
	case OpDeregister:
		err = d.followerDeregister(ctx, req)
	case OpMulti:
		err = d.followerMulti(ctx, req)
	default:
		d.respondFailure(req, CodeSystemError)
	}
	d.recordPhase("follower.total", d.K.Now()-t0)
	if err == nil && req.Seq > 0 {
		d.lastSeq[req.Session] = req.Seq
	}
	return err
}

// staleRouteRetries bounds how often one request re-routes after losing a
// race with a reshard (each retry re-reads the map, so one transition
// costs at most one extra round per in-flight write).
const staleRouteRetries = 8

// retryStale runs followerWrite with dynamic-mode re-routing: a commit
// rejected by the shard-map generation guard re-validates and re-routes
// against the refreshed map, after waiting out any migration gating the
// path. Once the retries are used up it hands errStaleRoute to the caller.
// Static deployments call followerWrite directly.
func (d *Deployment) retryStale(ctx cloud.Ctx, req Request) (int, error) {
	if d.dyn == nil {
		return d.followerWrite(ctx, req)
	}
	for attempt := 0; ; attempt++ {
		if attempt > 0 {
			// The retry stage spans the migration-gate wait; the chain then
			// re-enters validation against the refreshed map.
			d.stageReq(req, obs.StageRetry)
		}
		d.awaitRoutable(ctx, req.Path)
		if attempt > 0 {
			d.stageReq(req, obs.StageValidate)
		}
		shard, err := d.followerWrite(ctx, req)
		if !errors.Is(err, errStaleRoute) || attempt == staleRouteRetries {
			return shard, err
		}
	}
}

// respondFailure notifies the client directly from the follower; rejected
// requests never reach the leader (Algorithm 1, ②).
func (d *Deployment) respondFailure(req Request, code Code) {
	d.stageReq(req, obs.StageRespond)
	resp := Response{Session: req.Session, Seq: req.Seq, Code: code, Path: req.Path}
	d.notify(req.Session, resp, resp.wireSize())
}

// lockNode acquires the timed lock and decodes the node's system state.
func (d *Deployment) lockNode(ctx cloud.Ctx, path string) (fksync.Lock, sysNode, error) {
	t0 := d.K.Now()
	lock, item, err := d.Locks.AcquireWait(ctx, nodeKey(path), 0)
	d.recordPhase("follower.lock", d.K.Now()-t0)
	return lock, decodeSysNode(item), err
}

// followerWrite is Algorithm 1 for one create, set_data or delete; what the
// op requires, sends and writes comes from the write-op table (writeop.go).
// It returns the shard the op was routed to (the session-deregistration
// barrier must put its ack behind a deletion in exactly that queue) along
// with the usual handler error.
func (d *Deployment) followerWrite(ctx cloud.Ctx, req Request) (int, error) {
	shard := d.RouteShard(req.Path)
	var held []fksync.Lock // release order: node, then parent
	fail := func(code Code) (int, error) {
		d.unlockAll(ctx, held...)
		d.respondFailure(req, code)
		return shard, nil
	}
	if len(req.Data) > MaxNodeB {
		return fail(CodeTooLarge)
	}
	if code := checkPath(req.Op, req.Path); code != CodeOK {
		return fail(code)
	}
	// ① Lock parent first, node second.
	path := req.Path
	var parentLock fksync.Lock
	var parent sysNode
	if splicesParent(req.Op) {
		var err error
		if parentLock, parent, err = d.lockNodeClean(ctx, znode.Parent(path), 0); err != nil {
			return fail(CodeSystemError)
		}
		held = []fksync.Lock{parentLock}
		// ② Validate under the locks, the parent as soon as it is held.
		if code := checkParent(req.Op, parent); code != CodeOK {
			return fail(code)
		}
		// Sequential nodes take their suffix from the parent's counter,
		// read under the parent lock.
		if req.Op == OpCreate && req.Flags&znode.FlagSequential != 0 {
			path = znode.SequentialName(path, parent.SeqCtr)
		}
	}
	nodeLock, node, err := d.lockNodeClean(ctx, path, 0)
	if err != nil {
		return fail(CodeSystemError)
	}
	held = append([]fksync.Lock{nodeLock}, held...)
	if code := checkNode(req.Op, path, req.Version, node, parent); code != CodeOK {
		return fail(code)
	}
	owner := ""
	if req.Op == OpCreate && req.Flags&znode.FlagEphemeral != 0 {
		owner = req.Session
		if err := d.recordEphemeral(ctx, owner, path); err != nil {
			return fail(CodeSystemError)
		}
	}
	msg := validatedMsg(req, path, owner, node, parent)
	msg.LockTs, msg.ParentLockTs = nodeLock.Timestamp, parentLock.Timestamp
	d.routeMsg(&msg)
	r, committed, err := d.pushAndCommit(ctx, req, msg, obs.StageLeaderQ, held,
		func(ctx cloud.Ctx, txid int64, guard []kv.TxOp) error {
			return d.commitLocked(ctx, held, msg, txid, guard)
		})
	if committed && req.Op == OpDelete && node.EphOwner != "" {
		d.forgetEphemeral(ctx, node.EphOwner, path)
	}
	return r.shard, err
}

// recordEphemeral tracks an ephemeral create on its owner's session record
// (used by the heartbeat eviction path) BEFORE the push: once the message
// is in the leader queue the node can commit even if this sandbox dies
// (TryCommit), and an entry recorded only after a successful commit would
// then be lost forever — leaking the node past its session's death. The
// early entry is merely stale when the create fails or is replayed:
// eviction's deletes are idempotent and a live session keeps answering
// heartbeats, so a stale entry costs one ping. (Replays short-circuit on
// node-exists and never get here twice for a committed create.)
func (d *Deployment) recordEphemeral(ctx cloud.Ctx, owner, path string) error {
	_, err := d.System.Update(ctx, sessionKey(owner),
		[]kv.Update{kv.StrListAppend{Name: attrSessionEph, Vals: []string{path}}}, nil)
	return err
}

// forgetEphemeral drops a deleted ephemeral from its owner's session
// record, after the commit; a stale entry left by a failure is harmless.
func (d *Deployment) forgetEphemeral(ctx cloud.Ctx, owner, path string) {
	_, _ = d.System.Update(ctx, sessionKey(owner),
		[]kv.Update{kv.StrListRemove{Name: attrSessionEph, Vals: []string{path}}}, nil)
}

// pushAndCommit is the tail of Algorithm 1 that a single op and a
// single-shard multi() share: push the validated message to the shard set
// on it (③; the FIFO sequence number is the txid), pass the crash point
// between the two, and run commit — the caller's conditional write of every
// locked item together with the lock release (④), joined with the shard-map
// generation guard on a dynamic deployment. held is every lock taken, for
// the paths that give up. committed is false with a nil error when the
// request was answered here (push failure) or left to the leader's replay
// (lease lost).
func (d *Deployment) pushAndCommit(ctx cloud.Ctx, req Request, msg leaderMsg, crashStage string, held []fksync.Lock,
	commit func(ctx cloud.Ctx, txid int64, guard []kv.TxOp) error) (r routed, committed bool, err error) {
	r, err = d.pushToShard(ctx, msg)
	if err != nil {
		d.unlockAll(ctx, held...)
		code := CodeSystemError
		if errors.Is(err, errMsgTooLarge) {
			code = CodeTooLarge
		}
		d.respondFailure(req, code)
		return r, false, nil
	}
	if d.crashAt(crashStage, req.Session, req.Seq) {
		return r, false, errInjectedCrash
	}
	t0 := d.K.Now()
	sp := d.reqSpan(req, obs.SpanFollowerCommit, r.shard)
	err = commit(d.billSpan(ctx, costReqTrace(req), sp, r.shard, ""), r.txid, d.dynGuard(r.shard, r.gen))
	d.spanEnd(sp)
	d.recordPhase("follower.commit", d.K.Now()-t0)
	if err == nil {
		return r, true, nil
	}
	if d.staleRoutedCommit(ctx, r.shard, r.gen) {
		// Fenced by a reshard: nothing was written, the locks are still
		// ours — release them and re-route. The pushed message strands in
		// the old queue; its leader recognizes the superseded generation
		// and drops it silently.
		d.unlockAll(ctx, held...)
		return r, false, errStaleRoute
	}
	// Lost the lease: the leader's TryCommit may still save the
	// transaction; nothing more to do here.
	return r, false, nil
}

// commitLocked is step ④ of a single-op message committing at txid, as the
// follower runs it and as the leader replays it for a dead one (TryCommit).
func (d *Deployment) commitLocked(ctx cloud.Ctx, held []fksync.Lock, msg leaderMsg, txid int64, guard []kv.TxOp) error {
	node, parent := commitUpdates(msg, txid)
	return d.transactLocked(ctx, held, append(node, pendingAppend(txid)), parent, guard)
}

// transactLocked applies updates to the items a single op locked — held is
// the node's lock, then the parent's if the op has one — and releases the
// locks in the same conditional write: one update when the op touches one
// item and nothing guards it, one transaction in which the node and its
// parent fail or succeed together (Section 3.1) otherwise.
func (d *Deployment) transactLocked(ctx cloud.Ctx, held []fksync.Lock, node, parent []kv.Update, guard []kv.TxOp) error {
	if len(held) == 1 && guard == nil {
		_, err := d.Locks.CommitUnlock(ctx, held[0], node)
		return err
	}
	parts := append(make([]fksync.TxPart, 0, 2), fksync.TxPart{Lock: held[0], Updates: node})
	if len(held) > 1 {
		parts = append(parts, fksync.TxPart{Lock: held[1], Updates: parent})
	}
	return d.Locks.CommitUnlockTxGuard(ctx, parts, guard)
}

// followerDeregister closes a session: every ephemeral node it owns is
// deleted through the normal write pipeline, then the session record is
// removed (Section 3.6).
func (d *Deployment) followerDeregister(ctx cloud.Ctx, req Request) error {
	item, ok := d.System.Get(ctx, sessionKey(req.Session), true)
	if !ok {
		// Already gone: idempotent; answer directly.
		resp := Response{Session: req.Session, Seq: req.Seq, Code: CodeOK}
		d.notify(req.Session, resp, resp.wireSize())
		return nil
	}
	eph := append([]string(nil), item.Get(attrSessionEph).SL...)
	touched := map[int]bool{}
	for _, path := range eph {
		// Seq -1: these deletions produce no client-visible responses; the
		// deregistration ack below covers them. The ack must ride the
		// queue each deletion actually committed to, so the shard comes
		// back from the delete itself (routing may change mid-loop on a
		// dynamic deployment).
		del := Request{Session: req.Session, Seq: -1, Op: OpDelete, Path: path, Version: -1}
		shard, err := d.retryStale(ctx, del)
		if err != nil {
			return err
		}
		touched[shard] = true
	}
	if err := d.System.Delete(ctx, sessionKey(req.Session), nil); err != nil {
		return fmt.Errorf("core: deregister: %w", err)
	}
	if len(touched) == 0 {
		touched[0] = true // no ephemerals: any single shard may ack
	}
	// Acknowledge through the leader queue of every shard that received a
	// deletion: each shard's FIFO order puts the ack behind those
	// deletions, and the shard completing the ack set answers the client —
	// so the client sees the ack only after every deletion has been
	// distributed.
	// Multi-shard fanouts need an id: an atomic system-store counter
	// (followers are stateless, so an in-memory counter would repeat after
	// a restart and let stale markers of an abandoned fanout satisfy a new
	// barrier). A fanout abandoned by a push failure leaves its barrier
	// item behind; later fanouts ignore the stale markers (different id),
	// so the only cost is bounded system-store garbage on an
	// unreachable-in-practice path (acks are far below the queue limit).
	var deregID int64
	if len(touched) > 1 {
		it, err := d.System.Update(ctx, deregSeqKey,
			[]kv.Update{kv.Add{Name: attrDeregSeq, Delta: 1}}, nil)
		if err != nil {
			return fmt.Errorf("core: deregister id: %w", err)
		}
		deregID = it.Get(attrDeregSeq).Num
	}
	for s := 0; s < d.NumShards(); s++ { // in shard order: determinism
		if !touched[s] {
			continue
		}
		ack := leaderMsg{
			Session: req.Session, Seq: req.Seq, Op: OpDeregister,
			Shard: s, Fanout: len(touched), DeregID: deregID,
		}
		if _, err := d.pushToShard(ctx, ack); err != nil {
			return err
		}
	}
	return nil
}

var errMsgTooLarge = errors.New("core: leader message exceeds queue limit")

// routed is the outcome of a leader-queue push: the derived transaction
// id, the shard the message landed on, and — on a dynamic deployment —
// the map generation it was routed with, which the follower's commit must
// pin (dynGuard).
type routed struct {
	txid  int64
	shard int
	gen   int64
}

// routeMsg sets the shard of a validated change: its subtree's ordered
// queue. With one shard this is the paper's single global FIFO queue and
// its total order of writes; with more, the order is total per shard, which
// suffices because no operation spans subtrees. A dynamic deployment routes
// through the shard map and stamps the message with the routing generation
// and the shard's txid base.
func (d *Deployment) routeMsg(msg *leaderMsg) {
	if d.dyn == nil {
		msg.Shard = ShardOf(msg.Path, d.NumShards())
		return
	}
	m := d.mapView()
	msg.Shard = m.ShardFor(msg.Path)
	dynStamp(msg, m)
}

// pushToShard sends the message to the shard already set on it.
func (d *Deployment) pushToShard(ctx cloud.Ctx, msg leaderMsg) (routed, error) {
	t0 := d.K.Now()
	// Re-sink the bill so the queue-delivery cell is refined by the routed
	// shard (the caller's sink knows the trace but not the route).
	ctx = d.billMsg(ctx, msg)
	e := wire.NewEncoder()
	seqNo, err := d.LeaderQs[msg.Shard].Send(ctx, msg.Session, msg.encode(e))
	e.Release()
	d.recordPhase("follower.push", d.K.Now()-t0)
	if errors.Is(err, queue.ErrTooLarge) {
		return routed{shard: msg.Shard, gen: dynGen(msg)}, errMsgTooLarge
	}
	if err == nil {
		d.stageMsg(msg, obs.StageLeaderQ)
	}
	if err == nil && msg.Seq > 0 && msg.Op != OpDeregister && msg.Op != OpTxnCommit {
		// Once pushed, the leader will complete (or TryCommit) this
		// request even if we crash right here — mark it processed so a
		// queue retry does not apply it a second time. Deregister acks are
		// excluded: their fanout must complete as a whole before the
		// request counts as processed (processRequest marks it then).
		// Cross-shard commit messages are excluded for the same reason: a
		// coordinator that crashes between shard pushes must be redriven
		// by redelivery until the whole transaction is applied.
		d.lastSeq[msg.Session] = msg.Seq
	}
	return routed{txid: d.msgTxid(seqNo, msg), shard: msg.Shard, gen: dynGen(msg)}, err
}

func (d *Deployment) unlockAll(ctx cloud.Ctx, locks ...fksync.Lock) {
	for _, l := range locks {
		_ = d.Locks.Release(ctx, l)
	}
}

// crashAt asks the kernel's fault hook (package chaos) whether the
// function should die at the labeled pipeline stage while processing
// (session, seq). Without a hook — every non-chaos deployment — this is a
// nil check and nothing else.
func (d *Deployment) crashAt(stage, session string, seq int64) bool {
	h := d.K.Fault()
	return h != nil && h.Crash(stage, session, seq)
}

package core

import (
	"errors"
	"fmt"
	"slices"
	"strings"

	"faaskeeper/internal/cloud"
	"faaskeeper/internal/cloud/faas"
	"faaskeeper/internal/cloud/kv"
	"faaskeeper/internal/cloud/queue"
	"faaskeeper/internal/fksync"
	"faaskeeper/internal/obs"
	"faaskeeper/internal/txn"
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
	case OpCreate, OpSetData, OpDelete, OpMulti:
		_, err = d.followerWrite(ctx, req)
	case OpDeregister:
		err = d.followerDeregister(ctx, req)
	default:
		d.respondFailure(req, CodeSystemError)
	}
	d.recordPhase("follower.total", d.K.Now()-t0)
	if err == nil && req.Seq > 0 {
		d.lastSeq[req.Session] = req.Seq
	}
	return err
}

// respondFailure notifies the client directly from the follower; rejected
// requests never reach the leader (Algorithm 1, ②).
func (d *Deployment) respondFailure(req Request, code Code) {
	d.stageReq(req, obs.StageRespond)
	resp := Response{Session: req.Session, Seq: req.Seq, Code: code, Path: req.Path}
	d.notify(req.Session, SessionMsg{Kind: MsgResponse, Response: resp}, resp.wireSize())
}

// lockNode acquires the timed lock and decodes the node's system state.
func (d *Deployment) lockNode(ctx cloud.Ctx, path string) (fksync.Lock, sysNode, error) {
	t0 := d.K.Now()
	lock, item, err := d.Locks.AcquireWait(ctx, path, 0)
	d.recordPhase("follower.lock", d.K.Now()-t0)
	return lock, decodeSysNode(item, 0), err
}

// followerWrite is Algorithm 1 for one create, set_data or delete, or a
// multi() of them: a single op is a one-change plan (txnops.go). It locks
// and validates (plan.prepare), records ephemeral creates on their owner's
// session, and pushes and commits on the one shard the changes write
// (pushAndCommit). A single op and a multi() differ only where the client
// sees it: how a rejection is answered, the crash label and the message's
// shape. It returns the shard a single op was routed to (the
// session-deregistration barrier must put its ack behind a deletion in
// exactly that queue) along with the usual handler error.
func (d *Deployment) followerWrite(ctx cloud.Ctx, req Request) (int, error) {
	multi := req.Op == OpMulti
	one := [1]txn.Op{{Type: txn.OpType(req.Op), Path: req.Path, Data: req.Data, Version: req.Version, Flags: req.Flags}}
	ops := one[:]
	if multi {
		var err error
		if ops, err = txn.DecodeOps(req.Data); err != nil || len(ops) == 0 {
			d.respondFailure(req, CodeSystemError)
			return 0, nil
		}
	}
	shard := d.route.ShardFor(req.Path)
	var changes [1]change
	var items [2]planItem
	p := plan{ops: changes[:0], items: items[:0]}
	// reject releases every lock and answers op i's code (the request's
	// for i < 0).
	reject := func(i int, code Code) (int, error) {
		p.unlock(d, ctx)
		if multi && i >= 0 {
			d.respondMultiAbort(req, ops, i, code)
		} else {
			d.respondFailure(req, code)
		}
		return shard, nil
	}
	for i, op := range ops {
		if znode.ValidatePath(op.Path) != nil {
			return reject(i, CodeSystemError)
		}
		if len(op.Data) > MaxNodeB {
			return reject(i, CodeTooLarge)
		}
	}
	if i, code, err := p.prepare(d, ctx, ops, req.Session); err != nil {
		if req.Seq < 0 {
			// A deregistration's delete (followerDeregister) that could not
			// lock its node: the node stays, so the session record must too.
			// Failing the batch has the queue deliver the deregistration
			// again.
			p.unlock(d, ctx)
			return shard, err
		}
		return reject(-1, CodeSystemError)
	} else if code != CodeOK {
		return reject(i, code)
	}
	// Route on the RESOLVED paths: a top-level sequential create may land
	// in another shard than the path its request named. (The changes are
	// index-aligned with the request's ops.)
	msg := leaderMsg{Session: req.Session, Seq: req.Seq, Shard: -1}
	for i, c := range p.ops {
		if !c.effectful() {
			continue
		}
		if s := d.route.ShardFor(c.Path); msg.Shard < 0 {
			msg.Shard = s
		} else if s != msg.Shard {
			return reject(i, CodeCrossShard)
		}
	}
	if msg.Shard < 0 {
		// A multi() of checks only: the locks proved every guard at one
		// instant.
		p.unlock(d, ctx)
		results := make([]txn.Result, len(p.ops))
		for i, c := range p.ops {
			results[i] = txn.Result{Type: txn.OpType(c.Op), Path: c.Path, Code: txn.CodeOK}
		}
		d.respondMulti(req, CodeOK, results)
		return shard, nil
	}
	for _, c := range p.ops {
		if c.Op == OpCreate && c.EphOwner != "" {
			if err := d.recordEphemeral(ctx, c.EphOwner, c.Path); err != nil {
				return reject(-1, CodeSystemError)
			}
		}
	}
	stage := obs.StageLeaderQ
	if multi {
		// The sub-ops and every locked item ride the message, on the wire
		// only for OpMulti. The sub-ops are a copy, so that a single op's
		// change buffer can stay on this function's stack.
		stage = obs.StageTxnPrep
		msg.change = change{Op: OpMulti, Path: anchorPath(p.ops)}
		msg.Ops = slices.Clone(p.ops)
		for _, it := range p.items {
			msg.ItemPaths = append(msg.ItemPaths, it.lock.Key)
			msg.ItemLockTs = append(msg.ItemLockTs, it.lock.Timestamp)
		}
	} else {
		msg.change = p.ops[0]
		msg.LockTs, msg.ParentLockTs = p.lockTs(msg.Path), p.lockTs(msg.ParentPath)
	}
	committed, err := d.pushAndCommit(ctx, req, msg, stage, &p)
	if committed {
		for _, c := range p.ops {
			// A path the same multi() created again keeps its entry.
			if c.Op == OpDelete && c.EphOwner != "" && !p.items[p.find(c.Path)].state.Exists {
				d.forgetEphemeral(ctx, c.EphOwner, c.Path)
			}
		}
	}
	return msg.Shard, err
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
		[]kv.Update{kv.StrListAppend{Name: attrSessionEph, Vals: []string{strings.Clone(path)}}}, nil)
	return err
}

// forgetEphemeral drops a deleted ephemeral from its owner's session
// record, after the commit; a stale entry left by a failure is harmless.
func (d *Deployment) forgetEphemeral(ctx cloud.Ctx, owner, path string) {
	_, _ = d.System.Update(ctx, sessionKey(owner),
		[]kv.Update{kv.StrListRemove{Name: attrSessionEph, Vals: []string{path}}}, nil)
}

// pushAndCommit is the tail of Algorithm 1: push the validated message to
// the shard set on it (③; the FIFO sequence number is the txid), pass the
// crash point between the two, and commit the plan — the conditional write
// of every locked item together with the lock release (④). committed is
// false with a nil error when the request was answered here (push failure)
// or left to the leader's replay (lease lost).
func (d *Deployment) pushAndCommit(ctx cloud.Ctx, req Request, msg leaderMsg, crashStage string, p *plan) (committed bool, err error) {
	r, err := d.pushToShard(ctx, msg)
	if err != nil {
		p.unlock(d, ctx)
		code := CodeSystemError
		if errors.Is(err, errMsgTooLarge) {
			code = CodeTooLarge
		}
		d.respondFailure(req, code)
		return false, nil
	}
	if d.crashAt(crashStage, req.Session, req.Seq) {
		return false, errInjectedCrash
	}
	t0 := d.K.Now()
	sp := d.reqSpan(req, obs.SpanFollowerCommit, r.shard)
	err = d.commitPlan(d.billSpan(ctx, costReqTrace(req), sp, r.shard, ""), *p, r.txid)
	d.spanEnd(sp)
	d.recordPhase("follower.commit", d.K.Now()-t0)
	// Lost the lease: the leader's TryCommit may still save the
	// transaction; nothing more to do here.
	return err == nil, nil
}

// followerDeregister closes a session: every ephemeral node it owns is
// deleted through the normal write pipeline, then the session record is
// removed (Section 3.6).
func (d *Deployment) followerDeregister(ctx cloud.Ctx, req Request) error {
	item, ok := d.System.Get(ctx, sessionKey(req.Session), true)
	if !ok {
		// Already gone: idempotent; answer directly.
		resp := Response{Session: req.Session, Seq: req.Seq, Code: CodeOK}
		d.notify(req.Session, SessionMsg{Kind: MsgResponse, Response: resp}, resp.wireSize())
		return nil
	}
	eph := append([]string(nil), item.Get(attrSessionEph).SL()...)
	touched := map[int]bool{}
	for _, path := range eph {
		// Seq -1: these deletions produce no client-visible responses; the
		// deregistration ack below covers them. The ack must ride the
		// queue each deletion committed to, which the delete reports.
		del := Request{Session: req.Session, Seq: -1, Op: OpDelete, Path: path, Version: -1}
		shard, err := d.followerWrite(ctx, del)
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
		deregID = it.Get(attrDeregSeq).Num()
	}
	for s := 0; s < d.NumShards(); s++ { // in shard order: determinism
		if !touched[s] {
			continue
		}
		ack := leaderMsg{
			Session: req.Session, Seq: req.Seq, change: change{Op: OpDeregister},
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
// id and the shard the message landed on.
type routed struct {
	txid  int64
	shard int
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
		return routed{shard: msg.Shard}, errMsgTooLarge
	}
	if err == nil {
		d.stageMsg(msg, obs.StageLeaderQ)
	}
	if err == nil && msg.Seq > 0 && msg.Op != OpDeregister {
		// Once pushed, the leader will complete (or TryCommit) this
		// request even if we crash right here — mark it processed so a
		// queue retry does not apply it a second time. Deregister acks are
		// excluded: their fanout must complete as a whole before the
		// request counts as processed (processRequest marks it then).
		d.lastSeq[msg.Session] = msg.Seq
	}
	return routed{txid: shardTxid(seqNo, msg.Shard, d.NumShards()), shard: msg.Shard}, err
}

// crashAt asks the kernel's fault hook (package chaos) whether the
// function should die at the labeled pipeline stage while processing
// (session, seq). Without a hook — every non-chaos deployment — this is a
// nil check and nothing else.
func (d *Deployment) crashAt(stage, session string, seq int64) bool {
	h := d.K.Fault()
	return h != nil && h.Crash(stage, session, seq)
}

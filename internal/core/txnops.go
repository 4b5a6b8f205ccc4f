package core

// multi() transactions (package txn). The coordinator rides in the
// follower function handling the OpMulti request, so it inherits the
// session's FIFO position and the queue's redelivery-based retry.
//
// Every multi has one shape: lock each touched item (global lexicographic
// order) and validate the ops against a speculative state, push the
// transaction to the leader queue of each shard it writes, and commit
// every item in ONE multi-item conditional transaction under the
// coordinator's lock timestamps. That transaction is the decision: it
// lands whole or not at all.
//
// A single-shard multi pushes one OpMulti message, and the shard's
// serialized leader applies it like any write (replaying the commit under
// the same locks for a coordinator that died).
//
// A multi writing several shards pushes one OpTxnCommit part per
// participant shard, each taking its txid from its own queue. Its commit
// also writes the transaction record (committed, the resolved ops, every
// part's txid) and sets a commit mark on every item. Then:
//
//	ready   each part's leader claims its watches, enters their ids, pops
//	        its pending entries and posts a ready marker on the record —
//	        the deregister-fanout ack pattern
//	apply   the coordinator distributes ALL user-store writes in one atomic
//	        batch (AtomicApplier) — or in op order where the backend has no
//	        transactions — after one coalesced cache invalidation record,
//	        marks the record applied, and only then clears the marks,
//	        answers the client and releases the deferred watch deliveries
//
// The marks are the isolation fence: a conflicting writer's follower
// blocks in lockNodeClean until the transaction is readable, and nothing
// touches the user store before the apply, so no reader observes part of
// a transaction. A redelivered coordinator resumes from the record; with
// no record nothing committed, and it starts afresh.
//
// A part whose commit never comes — the coordinator died between the
// pushes and the commit, or lost its lease — cannot be replayed by its
// leader, which lacks the other parts' txids. The leader decides
// ownership instead (txnPart): a release of one of the part's locks
// under the coordinator's timestamp, which the commit needs too, so
// exactly one of the two lands.

import (
	"errors"
	"slices"
	"sort"

	"faaskeeper/internal/cloud"
	"faaskeeper/internal/cloud/kv"
	"faaskeeper/internal/fksync"
	"faaskeeper/internal/obs"
	"faaskeeper/internal/sim"
	"faaskeeper/internal/txn"
	"faaskeeper/internal/znode"
)

// errTxnBarrier aborts the invocation so queue redelivery re-drives the
// committed transaction from its durable record.
var errTxnBarrier = errors.New("core: transaction barrier timed out; redelivery resumes")

// txnMarkAttempts bounds how long a writer waits on a foreign commit mark.
const txnMarkAttempts = 60

// txnHeadPolls bounds a leader's wait for a transaction message's commit.
const txnHeadPolls = 12

// lockNodeClean acquires the node's timed lock and resolves any commit
// mark found on the item. A stale mark — its transaction already applied
// or collected — is cleared inline under the held lock (cooperative
// recovery of a crashed coordinator's leftovers). A live mark (record
// still committed) owns the node: the lock is released and the
// acquisition retried, so conflicting writers serialize behind the
// transaction's apply. With no mark present (every deployment without
// cross-shard multis) the path is exactly lockNode: zero extra operations.
func (d *Deployment) lockNodeClean(ctx cloud.Ctx, path string) (fksync.Lock, sysNode, error) {
	for attempt := 0; attempt < txnMarkAttempts; attempt++ {
		lock, node, err := d.lockNode(ctx, path)
		if err != nil || node.TxnMark == 0 {
			return lock, node, err
		}
		if rec, found := d.Txns.Lookup(ctx, node.TxnMark); !found || rec.Status == txn.StatusApplied {
			it, cerr := d.System.Update(ctx, nodeKey(path),
				[]kv.Update{kv.Remove{Name: attrTxnCommitMark}},
				kv.Eq{Name: fksync.LockAttr, V: kv.N(lock.Timestamp)})
			if cerr == nil {
				return lock, decodeSysNode(it), nil
			}
			// Lost our lease while clearing; take the lock again.
			continue
		}
		_ = d.Locks.Release(ctx, lock)
		d.K.Sleep(sim.Time(attempt+1) * 2 * sim.Ms(1))
	}
	return fksync.Lock{}, sysNode{}, fksync.ErrLockHeld
}

// multiPlan is the coordinator's prepared state: every touched item
// locked, every op validated and resolved.
type multiPlan struct {
	resolved []txn.ResolvedOp
	locks    map[string]fksync.Lock
	order    []string // lock acquisition order
	// specs is the speculative state of every locked item: later ops of the
	// same multi validate against the earlier ops' effects (ZooKeeper
	// validates multi ops sequentially against the evolving state).
	specs map[string]*sysNode
}

// acquire locks one item (idempotently) and seeds its speculative state.
func (p *multiPlan) acquire(d *Deployment, ctx cloud.Ctx, path string) error {
	if _, held := p.locks[path]; held {
		return nil
	}
	lock, node, err := d.lockNodeClean(ctx, path)
	if err != nil {
		return err
	}
	p.locks[path] = lock
	p.order = append(p.order, path)
	p.specs[path] = &node
	return nil
}

// unlock releases every lock the plan holds (the paths that give up).
func (p *multiPlan) unlock(d *Deployment, ctx cloud.Ctx) {
	for _, path := range p.order {
		_ = d.Locks.Release(ctx, p.locks[path])
	}
}

// prepareMulti locks every touched item in global lexicographic order and
// validates the ops speculatively. On success the locks are still held.
// On validation failure every lock is released and the failing op's index
// and code are returned (failIdx >= 0). err is infrastructure-only.
func (d *Deployment) prepareMulti(ctx cloud.Ctx, req Request, reqOps []txn.Op) (plan *multiPlan, failIdx int, code Code, err error) {
	plan = &multiPlan{locks: map[string]fksync.Lock{}, specs: map[string]*sysNode{}}
	// The statically known paths: every op's node and the parent a create
	// or delete splices (a sequential create's node is named only during
	// validation).
	seen := map[string]bool{}
	var static []string
	note := func(p string) {
		if !seen[p] {
			seen[p] = true
			static = append(static, p)
		}
	}
	for _, op := range reqOps {
		switch op.Type {
		case txn.OpCreate:
			if op.Path == znode.Root {
				continue // validation will reject it
			}
			note(znode.Parent(op.Path))
			if op.Flags&znode.FlagSequential == 0 {
				note(op.Path)
			}
		case txn.OpDelete:
			if op.Path == znode.Root {
				continue
			}
			note(znode.Parent(op.Path))
			note(op.Path)
		default:
			note(op.Path)
		}
	}
	// Lexicographic order is deadlock-free against single ops and other
	// multis: a parent is a strict prefix of its children, so the global
	// order refines the pipeline's parent-first rule. (Sequential-node
	// paths resolve during validation and may lock out of order; the timed
	// lease bounds the rare resulting contention.)
	sort.Strings(static)
	t0 := d.K.Now()
	for _, p := range static {
		if err := plan.acquire(d, ctx, p); err != nil {
			plan.unlock(d, ctx)
			return nil, -1, CodeSystemError, err
		}
	}
	for i, op := range reqOps {
		rop, code, err := d.validateMultiOp(ctx, plan, op, req.Session)
		if err != nil {
			plan.unlock(d, ctx)
			return nil, -1, CodeSystemError, err
		}
		if code != CodeOK {
			plan.unlock(d, ctx)
			return nil, i, code, nil
		}
		plan.resolved = append(plan.resolved, rop)
	}
	d.recordPhase("txn.prepare", d.K.Now()-t0)
	return plan, -1, CodeOK, nil
}

// validateMultiOp runs one op through the write-op table against the plan's
// speculative state — the checks followerWrite runs against the stored one
// — and on success resolves the op and applies its effect to that state.
func (d *Deployment) validateMultiOp(ctx cloud.Ctx, plan *multiPlan, op txn.Op, session string) (txn.ResolvedOp, Code, error) {
	code := OpCode(op.Type)
	if c := checkPath(code, op.Path); c != CodeOK {
		return txn.ResolvedOp{}, c, nil
	}
	path, parentPath := op.Path, ""
	parent := &sysNode{} // stays empty for an op that splices none
	if splicesParent(code) {
		parentPath = znode.Parent(path)
		parent = plan.specs[parentPath]
		if c := checkParent(code, *parent); c != CodeOK {
			return txn.ResolvedOp{}, c, nil
		}
		if code == OpCreate && op.Flags&znode.FlagSequential != 0 {
			path = znode.SequentialName(path, parent.SeqCtr)
		}
	}
	// Only a sequential create's resolved path is not locked yet.
	if err := plan.acquire(d, ctx, path); err != nil {
		return txn.ResolvedOp{}, CodeSystemError, err
	}
	node := plan.specs[path]
	if c := checkNode(code, path, op.Version, *node, *parent); c != CodeOK {
		return txn.ResolvedOp{}, c, nil
	}
	rop := txn.ResolvedOp{Type: op.Type, Path: path, ParentPath: parentPath, Shard: d.route.ShardFor(path)}
	name := znode.Base(path)
	switch code {
	case OpSetData:
		node.Version++
		rop.Data, rop.Version, rop.EphOwner = op.Data, node.Version, node.EphOwner
	case OpCreate:
		if op.Flags&znode.FlagEphemeral != 0 {
			rop.EphOwner = session
		}
		parent.SeqCtr++
		parent.Cversion++
		parent.Children = append(parent.Children, name)
		*node = sysNode{Exists: true, EphOwner: rop.EphOwner, SeqCtr: node.SeqCtr}
		rop.Data, rop.Cversion, rop.ChildAdd = op.Data, parent.Cversion, name
	case OpDelete:
		node.Exists = false
		parent.Cversion++
		parent.Children = removeString(parent.Children, name)
		rop.Cversion, rop.EphOwner, rop.ChildDel = parent.Cversion, node.EphOwner, name
	}
	return rop, CodeOK, nil
}

// multiUpdates rebuilds every touched item's system-store updates for a
// set of resolved ops, each committing at its shard's txid: the table's
// per-op updates in op order, then one pending append per target node (even
// when several sub-ops touch it). touched lists every item in first-touch
// order, including check-only ones (which get no updates).
func multiUpdates(ops []txn.ResolvedOp, txidOf func(shard int) int64) (touched []string, ups map[string][]kv.Update) {
	ups = map[string][]kv.Update{}
	targetTxid := map[string]int64{}
	touch := func(p string, u []kv.Update) {
		if _, seen := ups[p]; !seen {
			touched = append(touched, p)
		}
		ups[p] = append(ups[p], u...)
	}
	for _, op := range ops {
		txid := txidOf(op.Shard)
		node, parent := commitUpdates(nil, nil, opMsgView(op), txid)
		touch(op.Path, node)
		if op.Effectful() {
			targetTxid[op.Path] = txid
		}
		if op.ParentPath != "" {
			touch(op.ParentPath, parent)
		}
	}
	for p, txid := range targetTxid {
		ups[p] = append(ups[p], pendingAppend(txid))
	}
	return touched, ups
}

// locks rebuilds the fast path's timed locks from the message, in
// acquisition order.
func (tm txnMsg) locks() []fksync.Lock {
	locks := make([]fksync.Lock, len(tm.ItemPaths))
	for i, p := range tm.ItemPaths {
		locks[i].Key = nodeKey(p)
		if i < len(tm.LockTs) {
			locks[i].Timestamp = tm.LockTs[i]
		}
	}
	return locks
}

// multiParts is step ④ of a fast-path multi() message committing at txid:
// every touched node and parent, each under its own lock. The coordinator
// and a leader acting for a dead one both commit exactly these.
func multiParts(tm txnMsg, txid int64) []fksync.TxPart {
	_, ups := multiUpdates(tm.Ops, func(int) int64 { return txid })
	parts := make([]fksync.TxPart, len(tm.ItemPaths))
	for i, l := range tm.locks() {
		parts[i] = fksync.TxPart{Lock: l, Updates: ups[tm.ItemPaths[i]]}
	}
	return parts
}

// commitParts is a cross-shard transaction's commit: every locked item
// under its own lock, with its updates, its shard's pending append and the
// commit mark — check-only items too, so they stay fenced until the apply.
func (p *multiPlan) commitParts(id int64, commits map[int]int64) []fksync.TxPart {
	_, ups := multiUpdates(p.resolved, func(s int) int64 { return commits[s] })
	parts := make([]fksync.TxPart, len(p.order))
	for i, path := range p.order {
		u := append(ups[path], kv.Set{Name: attrTxnCommitMark, V: kv.N(id)})
		parts[i] = fksync.TxPart{Lock: p.locks[path], Updates: u}
	}
	return parts
}

// --- shared helpers over resolved op lists ---

func effectfulShards(ops []txn.ResolvedOp) []int {
	var shards []int
	for _, op := range ops {
		if op.Effectful() {
			shards = append(shards, op.Shard)
		}
	}
	slices.Sort(shards)
	return slices.Compact(shards)
}

func resolvedOfShard(ops []txn.ResolvedOp, shard int) []txn.ResolvedOp {
	var out []txn.ResolvedOp
	for _, op := range ops {
		if op.Shard == shard {
			out = append(out, op)
		}
	}
	return out
}

// anchorPath names a shard message's Path field: the shard's first
// effectful op's path (used for routing and client-visible echoes).
func anchorPath(ops []txn.ResolvedOp, shard int) string {
	for _, op := range ops {
		if op.Shard == shard && op.Effectful() {
			return op.Path
		}
	}
	return znode.Root
}

// txnTargets lists the effectful ops' node paths in first-touch order.
func txnTargets(ops []txn.ResolvedOp) []string {
	seen := map[string]bool{}
	var out []string
	for _, op := range ops {
		if op.Effectful() && !seen[op.Path] {
			seen[op.Path] = true
			out = append(out, op.Path)
		}
	}
	return out
}

// allItemPaths lists every system item the transaction touched (targets,
// parents, and check paths) for clearing the commit marks.
func allItemPaths(ops []txn.ResolvedOp) []string {
	seen := map[string]bool{}
	var out []string
	add := func(p string) {
		if p != "" && !seen[p] {
			seen[p] = true
			out = append(out, p)
		}
	}
	for _, op := range ops {
		add(op.Path)
		add(op.ParentPath)
	}
	return out
}

// clearTxnMarks lifts the transaction's commit marks from the given items;
// conditional on the mark, so it is safe to call on paths that lost theirs.
func (d *Deployment) clearTxnMarks(ctx cloud.Ctx, id int64, paths []string) {
	for _, p := range paths {
		_, _ = d.System.Update(ctx, nodeKey(p),
			[]kv.Update{kv.Remove{Name: attrTxnCommitMark}},
			kv.Eq{Name: attrTxnCommitMark, V: kv.N(id)})
	}
}

// applyEphRecords updates the session records' ephemeral lists after a
// cross-shard commit, from the durable record's resolved ops (outside the
// atomic transaction: a stale entry is harmless, deletes are idempotent).
func (d *Deployment) applyEphRecords(ctx cloud.Ctx, resolved []txn.ResolvedOp) {
	for _, op := range resolved {
		switch {
		case op.EphOwner == "":
		case op.Type == txn.OpCreate:
			_ = d.recordEphemeral(ctx, op.EphOwner, op.Path)
		case op.Type == txn.OpDelete:
			d.forgetEphemeral(ctx, op.EphOwner, op.Path)
		}
	}
}

// respondMultiAbort answers a multi() that failed validation: the failing
// op carries its own code, the siblings report the rollback.
func (d *Deployment) respondMultiAbort(req Request, reqOps []txn.Op, failIdx int, code Code) {
	d.stageReq(req, obs.StageRespond)
	results := make([]txn.Result, len(reqOps))
	for i, op := range reqOps {
		r := txn.Result{Type: op.Type, Path: op.Path, Code: txn.CodeAborted}
		if i == failIdx {
			r.Code = string(code)
		}
		results[i] = r
	}
	resp := Response{Session: req.Session, Seq: req.Seq, Code: code, Path: req.Path, MultiResults: results}
	d.notify(req.Session, resp, resp.wireSize())
}

// notifyMulti answers a committed multi() with its per-op results.
func (d *Deployment) notifyMulti(req Request, results []txn.Result, commits map[int]int64) {
	d.stageReq(req, obs.StageRespond)
	var maxTxid int64
	for _, t := range commits {
		if t > maxTxid {
			maxTxid = t
		}
	}
	resp := Response{
		Session: req.Session, Seq: req.Seq, Code: CodeOK, Path: req.Path,
		Txid: maxTxid, MultiResults: results,
	}
	d.notify(req.Session, resp, resp.wireSize())
}

// buildTxnFold folds a committed transaction's resolved ops into the
// distributor's batch fold and builds the per-op client results. txidOf
// maps a shard to its commit txid (all ops of one shard share one txid,
// as a ZooKeeper multi shares one zxid). states supplies pre-read system
// states; missing ones are read from the system store.
func (d *Deployment) buildTxnFold(ctx cloud.Ctx, resolved []txn.ResolvedOp, txidOf func(int) int64, states map[string]sysNode) (*batchFold, []txn.Result) {
	fold := newBatchFold()
	results := make([]txn.Result, len(resolved))
	stateOf := func(p string) sysNode {
		if n, ok := states[p]; ok {
			return n
		}
		it, ok := d.System.Get(ctx, nodeKey(p), true)
		if !ok {
			return sysNode{}
		}
		n := decodeSysNode(it)
		states[p] = n
		return n
	}
	created := map[string]bool{}
	for i, op := range resolved {
		txid := txidOf(op.Shard)
		res := txn.Result{Type: op.Type, Path: op.Path, Code: txn.CodeOK}
		switch op.Type {
		case txn.OpCheck:
			// Validated at prepare; nothing to distribute.
		case txn.OpDelete:
			res.Txid = txid
			fold.foldDelete(op.Path, txid)
			fold.foldParent(op.ParentPath, "", op.ChildDel, op.Cversion, txid)
		case txn.OpCreate:
			res.Txid = txid
			n := &znode.Node{
				Path: op.Path,
				Data: op.Data,
				Stat: znode.Stat{
					Czxid: txid, Mzxid: txid, Pzxid: txid, Version: 0,
					Ephemeral: op.EphOwner != "", Owner: op.EphOwner,
					DataLength: int32(len(op.Data)),
				},
			}
			created[op.Path] = true
			res.Stat = n.Stat
			fold.foldWrite(op.Path, n, txid)
			fold.foldParent(op.ParentPath, op.ChildAdd, "", op.Cversion, txid)
		case txn.OpSetData:
			res.Txid = txid
			var st znode.Stat
			var children []string
			if created[op.Path] {
				st = znode.Stat{
					Czxid: txid, Mzxid: txid, Pzxid: txid, Version: op.Version,
					Ephemeral: op.EphOwner != "", Owner: op.EphOwner,
				}
			} else {
				state := stateOf(op.Path)
				children = append([]string(nil), state.Children...)
				st = znode.Stat{
					Czxid: state.Czxid, Mzxid: txid, Pzxid: state.Pzxid,
					Version: op.Version, Cversion: state.Cversion,
					Ephemeral: state.EphOwner != "", Owner: state.EphOwner,
					NumChildren: int32(len(children)),
				}
			}
			st.DataLength = int32(len(op.Data))
			n := &znode.Node{Path: op.Path, Data: op.Data, Stat: st, Children: children}
			res.Stat = st
			fold.foldWrite(op.Path, n, txid)
		}
		results[i] = res
	}
	return fold, results
}

// --- the coordinator (follower side) ---

// followerMulti handles an OpMulti request: validate statically, resume a
// redelivered transaction from its durable record, then lock and validate
// every op and commit on the path the resolved ops' shards select.
func (d *Deployment) followerMulti(ctx cloud.Ctx, req Request) error {
	reqOps, err := txn.DecodeOps(req.Data)
	if err != nil || len(reqOps) == 0 {
		d.respondFailure(req, CodeSystemError)
		return nil
	}
	for i, op := range reqOps {
		if err := znode.ValidatePath(op.Path); err != nil {
			d.respondMultiAbort(req, reqOps, i, CodeSystemError)
			return nil
		}
		if len(op.Data) > MaxNodeB {
			d.respondMultiAbort(req, reqOps, i, CodeTooLarge)
			return nil
		}
	}
	if id, ok := d.Txns.IDForRequest(ctx, req.Session, req.Seq); ok {
		return d.resumeTxn(ctx, req, id)
	}
	plan, failIdx, code, err := d.prepareMulti(ctx, req, reqOps)
	if err != nil {
		d.respondFailure(req, CodeSystemError)
		return nil
	}
	if failIdx >= 0 {
		d.respondMultiAbort(req, reqOps, failIdx, code)
		return nil
	}
	// Route on the RESOLVED paths: a top-level sequential create may land
	// in another shard than the path its request named.
	switch shards := effectfulShards(plan.resolved); len(shards) {
	case 0:
		// Checks only: the locks proved every guard at one instant.
		plan.unlock(d, ctx)
		fold, results := d.buildTxnFold(ctx, plan.resolved, func(int) int64 { return 0 }, map[string]sysNode{})
		fold.release()
		d.notifyMulti(req, results, nil)
		return nil
	case 1:
		return d.multiFastPath(ctx, req, plan, shards[0])
	default:
		return d.multiCrossShard(ctx, req, plan, shards)
	}
}

// multiFastPath commits a single-shard multi through the existing
// pipeline: one leader message, one multi-item system-store transaction.
// No transaction record, no marks — the timed locks held across the
// commit and the shard's serialized leader give atomicity and isolation
// for free.
func (d *Deployment) multiFastPath(ctx cloud.Ctx, req Request, plan *multiPlan, shard int) error {
	tm := txnMsg{
		Ops: plan.resolved, ItemPaths: plan.order, LockTs: make([]int64, len(plan.order)),
		traceID: obs.TraceOf(req.Session, req.Seq),
	}
	for i, p := range plan.order {
		tm.LockTs[i] = plan.locks[p].Timestamp
	}
	msg := leaderMsg{
		Session: req.Session, Seq: req.Seq, Op: OpMulti, Shard: shard,
		Path: anchorPath(plan.resolved, shard), NodeBlob: tm.encode(),
	}
	// Ephemeral creates go on their session records before the push, for
	// a single create's reason (recordEphemeral).
	for _, op := range plan.resolved {
		if op.Type == txn.OpCreate && op.EphOwner != "" {
			if err := d.recordEphemeral(ctx, op.EphOwner, op.Path); err != nil {
				plan.unlock(d, ctx)
				d.respondFailure(req, CodeSystemError)
				return nil
			}
		}
	}
	// ③–④ One message, one multi-item commit: every touched node and
	// parent fails or succeeds together, and the pending appends hand the
	// transaction to the shard's serialized leader.
	_, committed, err := d.pushAndCommit(ctx, req, msg, obs.StageTxnPrep, tm.locks(),
		func(ctx cloud.Ctx, txid int64) error {
			return d.Locks.CommitUnlockTx(ctx, multiParts(tm, txid))
		})
	if committed {
		for _, op := range plan.resolved {
			// A path the same multi() created again keeps its entry.
			if op.Type == txn.OpDelete && op.EphOwner != "" && !plan.specs[op.Path].Exists {
				d.forgetEphemeral(ctx, op.EphOwner, op.Path)
			}
		}
	}
	return err
}

// multiCrossShard is the cross-shard coordinator: push one part per
// participant shard, commit every item together with the record, then
// drive the ready barrier and the atomic apply.
func (d *Deployment) multiCrossShard(ctx cloud.Ctx, req Request, plan *multiPlan, shards []int) error {
	d.stageReq(req, obs.StageTxnPrep)
	fail := func(code Code) error {
		plan.unlock(d, ctx)
		d.respondFailure(req, code)
		return nil
	}
	id, err := d.Txns.Mint(ctx)
	if err != nil {
		return fail(CodeSystemError)
	}
	commits := make(map[int]int64, len(shards))
	for _, s := range shards {
		// A part carries the locks of its shard's items (its targets among
		// them) for its leader's ownership decision.
		tm := txnMsg{ID: id, Ops: resolvedOfShard(plan.resolved, s), traceID: obs.TraceOf(req.Session, req.Seq)}
		for _, p := range plan.order {
			if d.route.ShardFor(p) == s {
				tm.ItemPaths = append(tm.ItemPaths, p)
				tm.LockTs = append(tm.LockTs, plan.locks[p].Timestamp)
			}
		}
		r, err := d.pushToShard(ctx, leaderMsg{
			Session: req.Session, Seq: req.Seq, Op: OpTxnCommit, Shard: s,
			Path: anchorPath(plan.resolved, s), NodeBlob: tm.encode(),
		})
		if errors.Is(err, errMsgTooLarge) {
			return fail(CodeTooLarge)
		}
		if err != nil {
			return fail(CodeSystemError)
		}
		commits[s] = r.txid
	}
	if d.crashAt(obs.StageTxnPrep, req.Session, req.Seq) {
		return errInjectedCrash
	}
	// The decision: every item, the record and the request pointer in one
	// transaction under the coordinator's lock timestamps. A lost lease or
	// a leader's release fails it whole, and the leaders drop the parts;
	// the answer is indeterminate to the client, like any system error.
	d.stageReq(req, obs.StageTxnCommit)
	t0 := d.K.Now()
	err = d.Locks.CommitUnlockTx(ctx, plan.commitParts(id, commits),
		d.Txns.Commit(id, req.Session, req.Seq, plan.resolved, commits)...)
	d.recordPhase("txn.commit", d.K.Now()-t0)
	if err != nil {
		return fail(CodeSystemError)
	}
	if d.crashAt(obs.StageTxnCommit, req.Session, req.Seq) {
		return errInjectedCrash
	}
	return d.txnApply(ctx, req, id, plan.resolved, commits)
}

// txnApply drives a committed transaction to its answer — shared by the
// fresh path and redelivery. Every step is conditional on record or item
// state, or rewrites the same values, so a crashed predecessor's partial
// progress is absorbed, never double-applied.
func (d *Deployment) txnApply(ctx cloud.Ctx, req Request, id int64, resolved []txn.ResolvedOp, commits map[int]int64) error {
	// Barrier: every part's leader finished (watches claimed, epochs
	// entered, pendings popped) — the storage-backed ready markers, again
	// the deregister-ack pattern.
	if !d.Txns.AwaitReady(ctx, id, len(commits)) {
		return errTxnBarrier
	}
	// Atomic apply: one coalesced cache invalidation, then every
	// user-store write of the transaction in one batch.
	d.stageReq(req, obs.StageTxnApply)
	results := d.applyTxn(ctx, resolved, commits)
	if d.crashAt(obs.StageTxnApply, req.Session, req.Seq) {
		return errInjectedCrash
	}
	_ = d.Txns.MarkApplied(ctx, id)
	d.txnAnswer(ctx, req, id, resolved, commits, results)
	return nil
}

// txnAnswer finishes an applied transaction. Only now are the marks
// lifted: conflicting writers were fenced until the transaction became
// readable, and the deferred watch deliveries fire.
func (d *Deployment) txnAnswer(ctx cloud.Ctx, req Request, id int64, resolved []txn.ResolvedOp, commits map[int]int64, results []txn.Result) {
	d.clearTxnMarks(ctx, id, allItemPaths(resolved))
	d.applyEphRecords(ctx, resolved)
	d.notifyMulti(req, results, commits)
	d.Txns.Delete(ctx, id, req.Session, req.Seq)
}

// applyTxn is the commit point for readers: reload the per-region epoch
// unions (every participant's watch ids entered before its ready marker),
// fold the whole transaction, and distribute it atomically.
func (d *Deployment) applyTxn(ctx cloud.Ctx, resolved []txn.ResolvedOp, commits map[int]int64) []txn.Result {
	t0 := d.K.Now()
	epochs := map[cloud.Region][]int64{}
	for _, s := range d.Stores {
		e, _ := d.Epoch(ctx, s.Region())
		epochs[s.Region()] = e
	}
	fold, results := d.buildTxnFold(ctx, resolved, func(s int) int64 { return commits[s] }, map[string]sysNode{})
	d.distributeFold(ctx, fold, epochs, true, nil, nil)
	fold.release()
	d.recordPhase("txn.apply", d.K.Now()-t0)
	return results
}

// resumeTxn continues a redelivered coordinator whose transaction
// committed: the request pointer is written by the commit itself.
func (d *Deployment) resumeTxn(ctx cloud.Ctx, req Request, id int64) error {
	rec, found := d.Txns.Lookup(ctx, id)
	switch {
	case !found:
		// The predecessor answered and collected the record (the answer
		// precedes collection); just drop the dangling request pointer.
		d.Txns.Delete(ctx, id, req.Session, req.Seq)
	case rec.Status == txn.StatusCommitted:
		return d.txnApply(ctx, req, id, rec.Resolved, rec.Commits)
	default:
		// Died between the apply and the answer: rebuild the results.
		fold, results := d.buildTxnFold(ctx, rec.Resolved,
			func(s int) int64 { return rec.Commits[s] }, map[string]sysNode{})
		fold.release()
		d.txnAnswer(ctx, req, id, rec.Resolved, rec.Commits, results)
	}
	return nil
}

// --- the leader side ---

// txnHeads lists a transaction message's commit-check targets — its
// effectful ops' nodes, in first-touch order — with their control-record
// keys and a slot for each record awaitCommit finds at txid.
func txnHeads(tm txnMsg) (targets, keys []string, nodes []sysNode) {
	targets = txnTargets(tm.Ops)
	for _, p := range targets {
		keys = append(keys, nodeKey(p))
	}
	return targets, keys, make([]sysNode, len(targets))
}

// changes lists a transaction message's effectful ops as the changes its
// watch claim fires for.
func (tm txnMsg) changes() (out []leaderMsg) {
	for _, op := range tm.Ops {
		if op.Effectful() {
			out = append(out, opMsgView(op))
		}
	}
	return out
}

// multi is a single-shard multi()'s lane: the steps of a chunk of one, on
// every target at once. It claims its watches before anything becomes
// readable, distributes the whole transaction atomically within the
// shard's serialized pipeline, and pops before it answers. For a
// coordinator that died after its push, the commit check replays the
// multi-item commit under the message's timed locks.
func (p *leaderRun) multi(dm decodedMsg, tm txnMsg) {
	d, msg, txid := p.d, dm.msg, dm.txid
	ctx := d.billMsg(p.ctx, msg)
	targets, keys, nodes := txnHeads(tm)
	t0 := d.K.Now()
	ok := p.awaitCommit(ctx, keys, txid, nodes, nil, txnHeadPolls, replayPoll, false, func() (bool, bool) {
		_ = d.Locks.CommitUnlockTx(ctx, multiParts(tm, txid))
		return false, false
	})
	d.recordPhase("leader.get", d.K.Now()-t0)
	if !ok {
		d.notifyResult(msg, txid, CodeSystemError, znode.Stat{}, nil)
		return
	}
	fired := p.claimWatches(ctx, tm.changes()...)

	states := make(map[string]sysNode, len(targets))
	for i, path := range targets {
		states[path] = nodes[i]
	}
	fold, results := d.buildTxnFold(ctx, tm.Ops, func(int) int64 { return txid }, states)
	d.stageMsg(msg, obs.StageFlush)
	t0 = d.K.Now()
	d.distributeFold(ctx, fold, p.epochs, true, nil, nil)
	d.recordPhase("leader.update", d.K.Now()-t0)

	for _, f := range fired {
		p.completions = append(p.completions, d.launchWatch(ctx, msg, f, txid))
	}
	// Deleted nodes may be collected: their user-store removal is already
	// distributed, as for a single delete's pop after its flush.
	for i, key := range keys {
		nf := fold.nodes[targets[i]]
		d.popPending(pendingPop{ctx: ctx, key: key, txid: txid, gc: nf != nil && nf.del})
	}
	fold.release()
	d.notifyResult(msg, txid, CodeOK, znode.Stat{}, results)
}

// txnPart is the lane of one shard's part of a cross-shard transaction:
// order it in the pipeline, claim watches and enter their ids, pop the
// pendings, and post the ready marker. The user-store apply belongs to the
// coordinator, so the leader NEVER blocks on other shards — watch
// deliveries defer themselves until the transaction is readable, each
// managing its own epoch exit (a blocking barrier here could deadlock two
// transactions crossing the same pair of shard queues in opposite orders).
//
// A part cannot be replayed: its leader lacks the other parts' txids. When
// the commit check's polls run out the leader releases the part's first
// lock under the coordinator's timestamp, which the commit needs as well.
// If the release lands, the commit never can: the part is dropped, with its
// other locks, so a redelivered coordinator need not wait out the lease. If
// it fails, the commit landed or the lock moved on for good, and one more
// poll tells which.
func (p *leaderRun) txnPart(dm decodedMsg, tm txnMsg) {
	d, msg, txid := p.d, dm.msg, dm.txid
	// The part is one child span of the originating multi()'s tree
	// (msgTrace resolves OpTxnCommit to that trace): the per-shard legs of
	// a cross-shard multi show up side by side. Its charges — head polls,
	// watch claims, pending pops, the ready marker — bill into the span.
	ssp := d.tspan(d.msgTrace(msg), obs.SpanTxnShard, msg.Path, msg.Shard, "")
	ctx := d.billSpan(p.ctx, costMsgTrace(msg), ssp, msg.Shard, "")
	_, keys, nodes := txnHeads(tm)
	t0 := d.K.Now()
	ok := p.awaitCommit(ctx, keys, txid, nodes, nil, txnHeadPolls, txnHeadPolls-1, false, func() (bool, bool) {
		locks := tm.locks()
		if d.Locks.Release(ctx, locks[0]) == nil {
			d.unlockAll(ctx, locks[1:]...)
			return false, true
		}
		done, _, _ := p.pollCommit(ctx, keys, txid, nodes, nil, false)
		return done, true
	})
	d.recordPhase("leader.get", d.K.Now()-t0)
	if !ok {
		// The commit never landed (or this is a duplicate delivery): the
		// coordinator answers the client, nothing is left to do here.
		d.spanEnd(ssp)
		return
	}
	fired := p.claimWatches(ctx, tm.changes()...)
	// Pop pendings but never collect tombstones here: the mark must keep
	// fencing the path until the coordinator's atomic apply, and
	// collecting the item would drop it.
	for _, key := range keys {
		d.popPending(pendingPop{ctx: ctx, key: key, txid: txid})
	}
	_ = d.Txns.Ready(ctx, tm.ID, msg.Shard)
	d.spanEnd(ssp)
	if len(fired) > 0 {
		// One post-apply delivery batch for the whole shard: one poller,
		// every delivery launched in parallel once the transaction is
		// readable, then ONE atomic list-remove of all their ids per
		// region's epoch counter. Same Z4 ordering (no delivery before the
		// apply, no epoch exit before its delivery completes) at a
		// per-shard-constant number of epoch writes.
		d.txnWatchBatches++
		d.txnWatchDeliveries += int64(len(fired))
		d.K.Go("txn-watch-batch", func() {
			// A timed-out wait for the apply (false) means the coordinator is
			// still being re-driven by redelivery: keep waiting — delivering
			// before the apply would notify a change that is not yet readable
			// (Z4).
			for !d.Txns.AwaitApplied(ctx, tm.ID) {
			}
			comps := make([]watchCompletion, 0, len(fired))
			wids := make([]int64, 0, len(fired))
			for _, f := range fired {
				comps = append(comps, d.launchWatch(ctx, msg, f, txid))
				wids = append(wids, f.wid)
			}
			for _, c := range comps {
				_ = c.fut.Wait()
				d.spanEnd(c.span)
			}
			d.exitEpochs(ctx, msg.Shard, wids)
		})
	}
}

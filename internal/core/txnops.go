package core

// multi() transactions (package txn). The follower function handling the
// OpMulti request runs one, so it inherits the session's FIFO position and
// the queue's redelivery-based retry.
//
// A multi() commits on one shard's pipeline, like a single op: lock each
// touched item (global lexicographic order) and validate the ops against a
// speculative state, push ONE OpMulti message to the shard's leader queue,
// and commit every item in ONE multi-item conditional transaction under the
// follower's lock timestamps. That transaction lands whole or not at all,
// and the shard's serialized leader applies the message like any write,
// replaying the commit under the same locks for a follower that died.
//
// The effectful ops must resolve onto one shard; a check may sit on any,
// because the locks prove every guard at one instant. A multi() whose
// effectful ops span shards is answered here, after validation, with its
// locks released and nothing pushed: the first op on a second shard carries
// CodeCrossShard and its siblings CodeTxnAborted. Paths under one top-level
// node share a shard (ShardOf), and on the paper's one-shard deployment
// every multi() commits.

import (
	"slices"
	"sort"

	"faaskeeper/internal/cloud"
	"faaskeeper/internal/cloud/kv"
	"faaskeeper/internal/fksync"
	"faaskeeper/internal/obs"
	"faaskeeper/internal/txn"
	"faaskeeper/internal/znode"
)

// txnHeadPolls bounds a leader's wait for a multi() message's commit.
const txnHeadPolls = 12

// multiPlan is a multi()'s prepared state: every touched item locked, every
// op validated and resolved.
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
	lock, node, err := d.lockNode(ctx, path)
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
	rop := txn.ResolvedOp{Type: op.Type, Path: path, ParentPath: parentPath}
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
// set of resolved ops committing at txid: the table's per-op updates in op
// order, then one pending append per target node (even when several sub-ops
// touch it). touched lists every item in first-touch order, including
// check-only ones (which get no updates).
func multiUpdates(ops []txn.ResolvedOp, txid int64) (touched []string, ups map[string][]kv.Update) {
	ups = map[string][]kv.Update{}
	touch := func(p string, u []kv.Update) {
		if _, seen := ups[p]; !seen {
			touched = append(touched, p)
		}
		ups[p] = append(ups[p], u...)
	}
	for _, op := range ops {
		node, parent := commitUpdates(nil, nil, opMsgView(op), txid)
		touch(op.Path, node)
		if op.ParentPath != "" {
			touch(op.ParentPath, parent)
		}
	}
	for _, p := range txnTargets(ops) {
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

// multiParts is step ④ of a multi() message committing at txid: every
// touched node and parent, each under its own lock. The follower and a
// leader acting for a dead one both commit exactly these.
func multiParts(tm txnMsg, txid int64) []fksync.TxPart {
	_, ups := multiUpdates(tm.Ops, txid)
	parts := make([]fksync.TxPart, len(tm.ItemPaths))
	for i, l := range tm.locks() {
		parts[i] = fksync.TxPart{Lock: l, Updates: ups[tm.ItemPaths[i]]}
	}
	return parts
}

// anchorPath names a multi() message's Path field: its first effectful
// op's path (echoed in the answer, and named on the message's spans).
func anchorPath(ops []txn.ResolvedOp) string {
	for _, op := range ops {
		if op.Effectful() {
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

// respondMultiAbort answers a multi() the follower rejects: the failing op
// carries its own code, the siblings report the rollback.
func (d *Deployment) respondMultiAbort(req Request, reqOps []txn.Op, failIdx int, code Code) {
	results := make([]txn.Result, len(reqOps))
	for i, op := range reqOps {
		r := txn.Result{Type: op.Type, Path: op.Path, Code: txn.CodeAborted}
		if i == failIdx {
			r.Code = string(code)
		}
		results[i] = r
	}
	d.respondMulti(req, code, results)
}

// respondMulti answers a multi() from the follower: a rejection, or a
// multi() of checks only, which commits nothing.
func (d *Deployment) respondMulti(req Request, code Code, results []txn.Result) {
	d.stageReq(req, obs.StageRespond)
	resp := Response{Session: req.Session, Seq: req.Seq, Code: code, Path: req.Path, MultiResults: results}
	d.notify(req.Session, resp, resp.wireSize())
}

// buildTxnFold folds a committed multi()'s resolved ops into the
// distributor's batch fold and builds the per-op client results. Every op
// commits at txid, as a ZooKeeper multi shares one zxid. recs holds the
// control record of every target as the commit check confirmed it.
func buildTxnFold(resolved []txn.ResolvedOp, txid int64, recs map[string]*sysNode) (*batchFold, []txn.Result) {
	fold := newBatchFold()
	results := make([]txn.Result, len(resolved))
	created := map[string]bool{}
	for i, op := range resolved {
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
				state := recs[op.Path]
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

// --- the follower side ---

// followerMulti handles an OpMulti request: validate statically, lock and
// validate every op, and commit on the one shard the resolved ops write.
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
	// in another shard than the path its request named. (The resolved ops
	// are index-aligned with the request's.)
	shard := -1
	for i, op := range plan.resolved {
		if !op.Effectful() {
			continue
		}
		if s := d.route.ShardFor(op.Path); shard < 0 {
			shard = s
		} else if s != shard {
			plan.unlock(d, ctx)
			d.respondMultiAbort(req, reqOps, i, CodeCrossShard)
			return nil
		}
	}
	if shard < 0 {
		// Checks only: the locks proved every guard at one instant.
		plan.unlock(d, ctx)
		fold, results := buildTxnFold(plan.resolved, 0, nil)
		fold.release()
		d.respondMulti(req, CodeOK, results)
		return nil
	}
	return d.multiFastPath(ctx, req, plan, shard)
}

// multiFastPath commits a multi() through the existing pipeline: one
// leader message, one multi-item system-store transaction. The timed locks
// held across the commit and the shard's serialized leader give atomicity
// and isolation for free.
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
		Path: anchorPath(plan.resolved), NodeBlob: tm.encode(),
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

// --- the leader side ---

// txnHeads lists the records a transaction message's commit check reads:
// its targets — its effectful ops' nodes, in first-touch order, each
// awaited at txid — then the parents its creates and deletes splice that
// are no target, whose child watches its claim fires. It returns their
// paths, their control-record keys and a slot for each record.
func txnHeads(tm txnMsg) (paths, keys []string, targets int, nodes []sysNode) {
	paths = txnTargets(tm.Ops)
	targets = len(paths)
	for _, op := range tm.Ops {
		if op.ParentPath != "" && !slices.Contains(paths, op.ParentPath) {
			paths = append(paths, op.ParentPath)
		}
	}
	for _, p := range paths {
		keys = append(keys, nodeKey(p))
	}
	return paths, keys, targets, make([]sysNode, len(paths))
}

// multi is a multi()'s lane: the steps of a chunk of one, on every target
// at once. It claims its watches before anything becomes readable,
// distributes the whole transaction atomically within the shard's
// serialized pipeline, and pops before it answers. For a follower that died
// after its push, the commit check replays the multi-item commit under the
// message's timed locks.
func (p *leaderRun) multi(dm decodedMsg, tm txnMsg) {
	d, msg, txid := p.d, dm.msg, dm.txid
	ctx := d.billMsg(p.ctx, msg)
	paths, keys, targets, nodes := txnHeads(tm)
	t0 := d.K.Now()
	// The commit is one transaction, so the read that confirms the first
	// target is past it for every record the claim needs.
	ok := p.awaitCommit(ctx, keys[:targets], keys[targets:], txid, nodes, nil, txnHeadPolls, false, func() {
		_ = d.Locks.CommitUnlockTx(ctx, multiParts(tm, txid))
	})
	d.recordPhase("leader.get", d.K.Now()-t0)
	if !ok {
		d.notifyResult(msg, txid, CodeSystemError, znode.Stat{}, nil)
		return
	}
	// Each effectful op is a change its claim fires for, on the records as
	// confirmed: a group one op claimed is empty for the next.
	recs := make(map[string]*sysNode, len(paths))
	for i, path := range paths {
		recs[path] = &nodes[i]
	}
	var fired []firedWatch
	for _, op := range tm.Ops {
		if op.Effectful() {
			fired = p.queryWatches(ctx, opMsgView(op), recs[op.Path], recs[op.ParentPath], fired)
		}
	}

	fold, results := buildTxnFold(tm.Ops, txid, recs)
	d.stageMsg(msg, obs.StageFlush)
	t0 = d.K.Now()
	d.distributeFold(ctx, fold, p.epochs, true, nil, nil)
	d.recordPhase("leader.update", d.K.Now()-t0)

	for _, f := range fired {
		p.completions = append(p.completions, d.launchWatch(ctx, msg, f, txid))
	}
	// Deleted nodes may be collected: their user-store removal is already
	// distributed, as for a single delete's pop after its flush.
	for i, key := range keys[:targets] {
		nf := fold.nodes[paths[i]]
		d.popPending(pendingPop{ctx: ctx, key: key, txid: txid, gc: nf != nil && nf.del})
	}
	fold.release()
	d.notifyResult(msg, txid, CodeOK, znode.Stat{}, results)
}

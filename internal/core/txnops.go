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
	"sort"

	"faaskeeper/internal/cloud"
	"faaskeeper/internal/cloud/kv"
	"faaskeeper/internal/fksync"
	"faaskeeper/internal/obs"
	"faaskeeper/internal/txn"
	"faaskeeper/internal/znode"
)

// multiPlan is a multi()'s prepared state: every touched item locked, every
// op validated into its change.
type multiPlan struct {
	ops   []change
	locks map[string]fksync.Lock
	order []string // lock acquisition order
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
		c, code, err := d.validateMultiOp(ctx, plan, op, req.Session)
		if err != nil {
			plan.unlock(d, ctx)
			return nil, -1, CodeSystemError, err
		}
		if code != CodeOK {
			plan.unlock(d, ctx)
			return nil, i, code, nil
		}
		plan.ops = append(plan.ops, c)
	}
	d.recordPhase("txn.prepare", d.K.Now()-t0)
	return plan, -1, CodeOK, nil
}

// validateMultiOp runs one op through the write-op table against the plan's
// speculative state — the checks followerWrite runs against the stored one
// — and on success builds its change from that state, as followerWrite does
// from the stored one, and applies its effect to the state.
func (d *Deployment) validateMultiOp(ctx cloud.Ctx, plan *multiPlan, op txn.Op, session string) (change, Code, error) {
	code := OpCode(op.Type)
	if c := checkPath(code, op.Path); c != CodeOK {
		return change{}, c, nil
	}
	path := op.Path
	parent := &sysNode{} // stays empty for an op that splices none
	if splicesParent(code) {
		parent = plan.specs[znode.Parent(path)]
		if c := checkParent(code, *parent); c != CodeOK {
			return change{}, c, nil
		}
		if code == OpCreate && op.Flags&znode.FlagSequential != 0 {
			path = znode.SequentialName(path, parent.SeqCtr)
		}
	}
	// Only a sequential create's resolved path is not locked yet.
	if err := plan.acquire(d, ctx, path); err != nil {
		return change{}, CodeSystemError, err
	}
	node := plan.specs[path]
	if c := checkNode(code, path, op.Version, *node, *parent); c != CodeOK {
		return change{}, c, nil
	}
	owner := ""
	if code == OpCreate && op.Flags&znode.FlagEphemeral != 0 {
		owner = session
	}
	c := validatedChange(code, path, op.Data, owner, *node, *parent)
	name := znode.Base(path)
	switch code {
	case OpSetData:
		node.Version = c.Version
	case OpCreate:
		parent.SeqCtr++
		parent.Cversion = c.Cversion
		parent.Children = append(parent.Children, name)
		*node = sysNode{Exists: true, EphOwner: owner, SeqCtr: node.SeqCtr}
	case OpDelete:
		node.Exists = false
		parent.Cversion = c.Cversion
		parent.Children = removeString(parent.Children, name)
	}
	return c, CodeOK, nil
}

// multiUpdates rebuilds every touched item's system-store updates for a
// multi()'s changes committing at txid: the table's per-op updates in op
// order, then one pending append per target node (even when several sub-ops
// touch it). touched lists every item in first-touch order, including
// check-only ones (which get no updates).
func multiUpdates(ops []change, txid int64) (touched []string, ups map[string][]kv.Update) {
	ups = map[string][]kv.Update{}
	touch := func(p string, u []kv.Update) {
		if _, seen := ups[p]; !seen {
			touched = append(touched, p)
		}
		ups[p] = append(ups[p], u...)
	}
	for _, c := range ops {
		node, parent := commitUpdates(nil, nil, c, txid)
		touch(c.Path, node)
		if c.ParentPath != "" {
			touch(c.ParentPath, parent)
		}
	}
	for _, p := range txnTargets(ops) {
		ups[p] = append(ups[p], pendingAppend(txid))
	}
	return touched, ups
}

// itemLocks rebuilds a multi() message's timed locks, in acquisition order.
func (m leaderMsg) itemLocks() []fksync.Lock {
	locks := make([]fksync.Lock, len(m.ItemPaths))
	for i, p := range m.ItemPaths {
		locks[i].Key = nodeKey(p)
		if i < len(m.ItemLockTs) {
			locks[i].Timestamp = m.ItemLockTs[i]
		}
	}
	return locks
}

// multiParts is step ④ of a multi() message committing at txid: every
// touched node and parent, each under its own lock. The follower and a
// leader acting for a dead one both commit exactly these.
func multiParts(m leaderMsg, txid int64) []fksync.TxPart {
	_, ups := multiUpdates(m.Ops, txid)
	parts := make([]fksync.TxPart, len(m.ItemPaths))
	for i, l := range m.itemLocks() {
		parts[i] = fksync.TxPart{Lock: l, Updates: ups[m.ItemPaths[i]]}
	}
	return parts
}

// anchorPath names a multi() message's Path field: its first effectful
// op's path (echoed in the answer, and named on the message's spans).
func anchorPath(ops []change) string {
	for _, c := range ops {
		if c.effectful() {
			return c.Path
		}
	}
	return znode.Root
}

// txnTargets lists the effectful ops' node paths in first-touch order.
func txnTargets(ops []change) []string {
	seen := map[string]bool{}
	var out []string
	for _, c := range ops {
		if c.effectful() && !seen[c.Path] {
			seen[c.Path] = true
			out = append(out, c.Path)
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

// --- the follower side ---

// followerMulti handles an OpMulti request: validate statically, lock and
// validate every op into its change, and commit on the one shard the
// changes write.
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
	// in another shard than the path its request named. (The changes are
	// index-aligned with the request's ops.)
	shard := -1
	for i, c := range plan.ops {
		if !c.effectful() {
			continue
		}
		if s := d.route.ShardFor(c.Path); shard < 0 {
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
		results := make([]txn.Result, len(plan.ops))
		for i, c := range plan.ops {
			results[i] = txn.Result{Type: txn.OpType(c.Op), Path: c.Path, Code: txn.CodeOK}
		}
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
	msg := leaderMsg{
		Session: req.Session, Seq: req.Seq, change: change{Op: OpMulti, Path: anchorPath(plan.ops)}, Shard: shard,
		Ops: plan.ops, ItemPaths: plan.order, ItemLockTs: make([]int64, len(plan.order)),
	}
	for i, p := range plan.order {
		msg.ItemLockTs[i] = plan.locks[p].Timestamp
	}
	// Ephemeral creates go on their session records before the push, for
	// a single create's reason (recordEphemeral).
	for _, c := range plan.ops {
		if c.Op == OpCreate && c.EphOwner != "" {
			if err := d.recordEphemeral(ctx, c.EphOwner, c.Path); err != nil {
				plan.unlock(d, ctx)
				d.respondFailure(req, CodeSystemError)
				return nil
			}
		}
	}
	// ③–④ One message, one multi-item commit: every touched node and
	// parent fails or succeeds together, and the pending appends hand the
	// transaction to the shard's serialized leader.
	_, committed, err := d.pushAndCommit(ctx, req, msg, obs.StageTxnPrep, msg.itemLocks(),
		func(ctx cloud.Ctx, txid int64) error {
			return d.Locks.CommitUnlockTx(ctx, multiParts(msg, txid))
		})
	if committed {
		for _, c := range plan.ops {
			// A path the same multi() created again keeps its entry.
			if c.Op == OpDelete && c.EphOwner != "" && !plan.specs[c.Path].Exists {
				d.forgetEphemeral(ctx, c.EphOwner, c.Path)
			}
		}
	}
	return err
}

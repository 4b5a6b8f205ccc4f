package core

// The plan: what the follower's one write path (followerWrite) holds
// between its lock and its commit, for a single create, set_data or delete
// and for a multi() of them (package txn) alike — a single op is a
// one-change plan. The follower locks every touched item (global
// lexicographic order, which puts a parent before its node) and validates
// the ops in order against the items' speculative state, pushes ONE message
// to the shard's leader queue, and commits every locked item under its lock
// timestamp in ONE conditional write (commitPlan): an update for one item, a
// transaction for more, which lands whole or not at all. The shard's
// serialized leader applies the message like any write, and replays the
// commit from the message (leaderMsg.plan) for a follower that died.
//
// A multi()'s effectful ops must resolve onto one shard; a check may sit on
// any, because the locks prove every guard at one instant. A multi() whose
// effectful ops span shards is answered at the follower, after validation,
// with its locks released and nothing pushed: the first op on a second shard
// carries CodeCrossShard and its siblings CodeTxnAborted. Paths under one
// top-level node share a shard (ShardOf), and on the paper's one-shard
// deployment every multi() commits.

import (
	"slices"

	"faaskeeper/internal/cloud"
	"faaskeeper/internal/cloud/kv"
	"faaskeeper/internal/fksync"
	"faaskeeper/internal/obs"
	"faaskeeper/internal/txn"
	"faaskeeper/internal/znode"
)

// planItem is one item a plan locked: a node's control record, so its
// lock's key is the node's path. state is its speculative state: later ops
// of a multi() validate against the earlier ops' effects (ZooKeeper
// validates multi ops sequentially against the evolving state).
type planItem struct {
	lock  fksync.Lock
	state sysNode
}

// plan is a write's prepared state: every touched item locked, in
// acquisition order, and every op validated into its change. A plan holds a
// handful of items (a single op's node and parent), so lookups are linear.
type plan struct {
	ops   []change
	items []planItem
}

// find returns the index of path's item, or -1.
func (p *plan) find(path string) int {
	for i := range p.items {
		if p.items[i].lock.Key == path {
			return i
		}
	}
	return -1
}

// acquire locks one item (idempotently) and seeds its speculative state.
func (p *plan) acquire(d *Deployment, ctx cloud.Ctx, path string) (int, error) {
	if i := p.find(path); i >= 0 {
		return i, nil
	}
	lock, node, err := d.lockNode(ctx, path)
	if err != nil {
		return -1, err
	}
	i := len(p.items)
	p.items = p.items[:i+1] // within the room prepare made
	p.items[i] = planItem{lock: lock, state: node}
	return i, nil
}

// unlock releases every lock the plan holds, the last taken first (the
// paths that give up).
func (p *plan) unlock(d *Deployment, ctx cloud.Ctx) {
	for i := len(p.items) - 1; i >= 0; i-- {
		_ = d.Locks.Release(ctx, p.items[i].lock)
	}
}

// prepare locks every item the ops touch and validates the ops, in order,
// into p's changes. On a rejection it returns the failing op's index and
// code with the locks still held; err is infrastructure-only.
func (p *plan) prepare(d *Deployment, ctx cloud.Ctx, ops []txn.Op, session string) (int, Code, error) {
	// The statically known items: every op's node and the parent a create
	// or delete splices (a sequential create's node is named only during
	// validation).
	var buf [2]string
	static, named := buf[:0], 0
	note := func(path string) {
		if !slices.Contains(static, path) {
			static = append(static, path)
		}
	}
	for _, op := range ops {
		code := OpCode(op.Type)
		if splicesParent(code) {
			if op.Path == znode.Root {
				continue // validation will reject it
			}
			note(znode.Parent(op.Path))
		}
		if code != OpCreate || op.Flags&znode.FlagSequential == 0 {
			note(op.Path)
		} else {
			named++
		}
	}
	// Make room for every item and change up front: p grows by reslicing,
	// because storing append's result through p would move a single op's
	// buffers (followerWrite's stack) to the heap.
	if n := len(static) + named; cap(p.items) < n {
		p.items = make([]planItem, 0, n)
	}
	if cap(p.ops) < len(ops) {
		p.ops = make([]change, 0, len(ops))
	}
	// Lexicographic order is deadlock-free against other writes: a parent
	// is a strict prefix of its children, so the global order refines the
	// pipeline's parent-first rule. (Sequential-node paths resolve during
	// validation and may lock out of order; the timed lease bounds the rare
	// resulting contention.)
	slices.Sort(static)
	// The first op's parent check runs as soon as its parent is held, so a
	// create that cannot succeed gives up before it locks its node.
	// Sequential validation would fail op 0 first anyway.
	first, firstParent := OpCode(ops[0].Type), znode.Parent(ops[0].Path)
	for _, path := range static {
		i, err := p.acquire(d, ctx, path)
		if err != nil {
			return -1, CodeSystemError, err
		}
		if path == firstParent {
			if code := checkParent(first, p.items[i].state); code != CodeOK {
				return 0, code, nil
			}
		}
	}
	for i, op := range ops {
		c, code, err := p.validate(d, ctx, op, session)
		if err != nil || code != CodeOK {
			return i, code, err
		}
		p.ops = p.ops[:i+1]
		p.ops[i] = c
	}
	return -1, CodeOK, nil
}

// validate runs one op through the write-op table against the plan's
// speculative state, builds its change from that state and applies the
// change's effect to it. For a single op, and a multi()'s first op on each
// item, the speculative state is the one stored under the lock.
func (p *plan) validate(d *Deployment, ctx cloud.Ctx, op txn.Op, session string) (change, Code, error) {
	code := OpCode(op.Type)
	if c := checkPath(code, op.Path); c != CodeOK {
		return change{}, c, nil
	}
	path := op.Path
	parent := &sysNode{} // stays empty for an op that splices none
	pi := -1
	if splicesParent(code) {
		pi = p.find(znode.Parent(path))
		if c := checkParent(code, p.items[pi].state); c != CodeOK {
			return change{}, c, nil
		}
		if code == OpCreate && op.Flags&znode.FlagSequential != 0 {
			path = znode.SequentialName(path, p.items[pi].state.SeqCtr)
		}
	}
	// Only a sequential create's resolved path is not locked yet.
	ni, err := p.acquire(d, ctx, path)
	if err != nil {
		return change{}, CodeSystemError, err
	}
	if pi >= 0 {
		parent = &p.items[pi].state
	}
	node := &p.items[ni].state
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
		// The list may be a view of table storage (decodeSysNode): Clip
		// makes the append copy it.
		parent.Children = append(slices.Clip(parent.Children), name)
		*node = sysNode{Exists: true, EphOwner: owner, SeqCtr: node.SeqCtr}
	case OpDelete:
		node.Exists = false
		parent.Cversion = c.Cversion
		parent.Children = slices.DeleteFunc(slices.Clone(parent.Children), func(c string) bool { return c == name })
	}
	return c, CodeOK, nil
}

// lockTs returns the timestamp of path's lock (0 when the plan holds none).
func (p *plan) lockTs(path string) int64 {
	if i := p.find(path); i >= 0 {
		return p.items[i].lock.Timestamp
	}
	return 0
}

// commitPlan is step ④ of a plan committing at txid, as the follower runs
// it and as the leader replays it for a dead one (TryCommit): every locked
// item gets its changes' updates (itemUpdates) and its lock released in the
// same conditional write — one update when the plan locked one item, one
// transaction in which every item fails or succeeds together (Section 3.1)
// otherwise.
func (d *Deployment) commitPlan(ctx cloud.Ctx, p plan, txid int64) error {
	s := commitScratchPool.Get().(*commitScratch)
	defer s.release()
	s.rootPzxid = d.pzxidAttrs[txid%int64(d.NumShards())] // txid's minting shard (shardTxid)
	if len(p.items) == 1 {
		_, err := d.Locks.CommitUnlock(ctx, p.items[0].lock, s.itemUpdates(p.ops, p.items[0].lock.Key, txid))
		return err
	}
	for _, it := range p.items {
		s.parts = append(s.parts, fksync.TxPart{Lock: it.lock, Updates: s.itemUpdates(p.ops, it.lock.Key, txid)})
	}
	return d.Locks.CommitUnlockTx(ctx, s.parts)
}

// itemUpdates lists the updates the changes make to the item at path
// committing at txid: the table's per-op updates in op order, then one
// pending append if an effectful op targets the item (once, however many
// do).
func (s *commitScratch) itemUpdates(ops []change, path string, txid int64) []kv.Update {
	start, target := len(s.ups), false
	for _, c := range ops {
		switch path {
		case c.Path:
			s.nodeUpdates(c, txid)
			target = target || c.effectful()
		case c.ParentPath:
			s.parentUpdates(c, txid)
		}
	}
	if target { // the pending append: one txid, shared by every item
		s.txid[0] = txid
		s.pending = kv.ListAppend{Name: attrPending, Vals: s.txid[:]}
		s.ups = append(s.ups, &s.pending)
	}
	return s.ups[start:len(s.ups):len(s.ups)]
}

// plan rebuilds the plan m's follower committed, for the leader's replay of
// its commit: the changes, and every item it locked in acquisition order
// with the lock's timestamp — a multi()'s ItemPaths, a single op's parent
// (if it splices one), then its node. A single op's plan lives in the
// caller's buffers.
func (m *leaderMsg) plan(one *[1]change, buf *[2]planItem) plan {
	paths, ts := m.ItemPaths, m.ItemLockTs
	if m.Op != OpMulti {
		paths, ts = []string{m.ParentPath, m.Path}, []int64{m.ParentLockTs, m.LockTs}
		if m.ParentPath == "" {
			paths, ts = paths[1:], ts[1:]
		}
	}
	p := plan{ops: m.changes(one), items: buf[:0]}
	for i, path := range paths {
		it := planItem{lock: fksync.Lock{Key: path}}
		if i < len(ts) {
			it.lock.Timestamp = ts[i]
		}
		p.items = append(p.items, it)
	}
	return p
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
	d.notify(req.Session, SessionMsg{Kind: MsgResponse, Response: resp}, resp.wireSize())
}

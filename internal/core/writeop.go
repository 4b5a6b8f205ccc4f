package core

// The write-op table: what create, set_data and delete require of the
// locked items, what they send to the leader and what they write to the
// system store — defined once. The follower's one write path (Algorithm 1,
// followerWrite: a single op is a one-change plan, a multi() a plan of
// several) and the leader's replay of its commit (Algorithm 2's TryCommit)
// read it, so a rule cannot hold on one of them and drift on another.
//
//	op        locks (in order)   checks, in order                        node item                      parent item
//	create    parent, node       parent: no_node, no_children_for_eph;   exists=1, version=cversion=0,  children+=name, cversion+1,
//	                             node: node_exists                       c/m/pzxid=txid, eph=owner      seq+1, pzxid=txid
//	set_data  node               no_node, bad_version                    version=new, mzxid=txid        —
//	delete    parent, node       no_node, bad_version, not_empty,        exists=0, mzxid=txid, −eph     children−=name, cversion+1,
//	                             parent lists the node                                                  pzxid=txid
//
// A parent's pzxid is its committing shard's on the shared root, which
// keeps one per shard (childStamps). Every target node also gets txid
// appended to its pending list, once per message (itemUpdates): that entry
// is what hands the change to the shard's serialized leader.

import (
	"strings"
	"sync"

	"faaskeeper/internal/cloud/kv"
	"faaskeeper/internal/fksync"
	"faaskeeper/internal/znode"
)

// splicesParent reports whether the op changes its parent's child list.
// Such an op locks the parent before the node — a uniform top-down order
// prevents deadlocks between concurrent creates and deletes — and cannot
// target the root, which has no parent.
func splicesParent(op OpCode) bool { return op == OpCreate || op == OpDelete }

// checkPath is the table's pre-lock stage: the root always exists and can
// never be deleted (ZooKeeper's BADARGUMENTS, a definite refusal).
func checkPath(op OpCode, path string) Code {
	switch {
	case path != znode.Root:
		return CodeOK
	case op == OpCreate:
		return CodeNodeExists
	case op == OpDelete:
		return CodeBadArguments
	}
	return CodeOK
}

// checkParent is the first locked stage. For a write's first op it runs as
// soon as the parent is locked (plan.prepare), so a create that cannot
// succeed gives up before locking the node. (A delete's parent rule comes
// last in ZooKeeper's order: checkNode.)
func checkParent(op OpCode, parent sysNode) Code {
	switch {
	case op != OpCreate:
		return CodeOK
	case !parent.Exists:
		return CodeNoNode
	case parent.EphOwner != "":
		return CodeNoChildrenEph
	}
	return CodeOK
}

// checkNode is the second locked stage, run with every item locked.
// version is the request's expected version (-1 matches any); parent is
// read for deletes only. A multi()'s check op — OpCode(txn.OpCheck): the
// transaction vocabulary spells its op types like the pipeline's op codes,
// so the conversion is the whole adapter — has set_data's preconditions.
func checkNode(op OpCode, path string, version int32, node, parent sysNode) Code {
	if op == OpCreate {
		if node.Exists {
			return CodeNodeExists
		}
		return CodeOK
	}
	switch {
	case !node.Exists:
		return CodeNoNode
	case version != -1 && version != node.Version:
		return CodeBadVersion
	case op != OpDelete:
		return CodeOK
	case len(node.Children) > 0:
		return CodeNotEmpty
	case !parent.Exists || !parent.hasChild(znode.Base(path)):
		return CodeSystemError // unlinked: the tree is inconsistent
	}
	return CodeOK
}

// validatedChange builds the change a validated op sends to the leader
// (step ③ of Algorithm 1) from the plan's speculative states: the ones read
// under the locks, as the write's earlier ops left them.
// path is the final path (a sequential create's suffix resolved); owner is
// the ephemeral owner a create stamps.
func validatedChange(op OpCode, path string, data []byte, owner string, node, parent sysNode) change {
	c := change{Op: op, Path: path}
	switch op {
	case OpSetData:
		c.Version = node.Version + 1
		c.image = node.toZNode(path, data)
	case OpCreate:
		c.image = znode.Node{
			Path: path,
			Data: data,
			Stat: znode.Stat{Ephemeral: owner != "", Owner: owner},
		}
		c.ChildAdd = znode.Base(path)
		c.EphOwner = owner
	case OpDelete:
		c.ChildDel = znode.Base(path)
		c.EphOwner = node.EphOwner
	}
	if splicesParent(op) {
		c.ParentPath = znode.Parent(path)
		c.Cversion = parent.Cversion + 1
	}
	return c
}

// commitScratch is the one home of a commit's variable update actions
// (commitPlan): nodeUpdates, parentUpdates and itemUpdates keep each Set
// and the pending append in it and list a pointer to that, where the value
// itself in a kv.Update would be a heap box of its own. Its slices grow with
// the commit's op count, and a pointer into one stays valid when it grows.
// It is pooled and cleared before reuse, so it keeps no view of a message
// once the commit returns; the table copies every value it stores.
type commitScratch struct {
	ups     []kv.Update // every item's list, one after another
	parts   []fksync.TxPart
	sets    []kv.Set
	pending kv.ListAppend
	txid    [1]int64 // pending's value
	// rootPzxid names the committing shard's child stamp on the root
	// (pzxidAttrs), the one the commit sets there.
	rootPzxid string
}

var commitScratchPool = sync.Pool{New: func() any { return new(commitScratch) }}

func (s *commitScratch) set(name string, v kv.Value) kv.Update {
	s.sets = append(s.sets, kv.Set{Name: name, V: v})
	return &s.sets[len(s.sets)-1]
}

func (s *commitScratch) release() {
	clear(s.ups)
	clear(s.parts)
	clear(s.sets)
	*s = commitScratch{ups: s.ups[:0], parts: s.parts[:0], sets: s.sets[:0]}
	commitScratchPool.Put(s)
}

// nodeUpdates appends to s.ups the system-store effect of one validated op
// committing at txid on its node item, and parentUpdates the effect on its
// parent's (nothing where the op has none) — the table's last two columns.
// The follower's step ④ and the leader's replay of it write exactly these
// (itemUpdates). The strings a create stores (its owner, its child name)
// are clones: c's borrow the message body they were decoded from.
func (s *commitScratch) nodeUpdates(c change, txid int64) {
	switch c.Op {
	case OpSetData:
		s.ups = append(s.ups, s.set(attrVersion, kv.N(int64(c.Version))), s.set(attrMzxid, kv.N(txid)))
	case OpCreate:
		s.ups = append(s.ups, s.set(attrExists, kv.N(1)), s.set(attrVersion, kv.N(0)),
			s.set(attrCversion, kv.N(0)), s.set(attrCzxid, kv.N(txid)), s.set(attrMzxid, kv.N(txid)),
			s.set(attrPzxid, kv.N(txid)), s.set(attrChildren, kv.StrList()))
		if c.EphOwner != "" {
			s.ups = append(s.ups, s.set(attrEph, kv.S(c.EphOwner))) // the table stores a copy (kv.Set)
		}
	case OpDelete:
		// A tombstone (exists=0): the item stays so the leader can track
		// the pending transaction, and collects it after the pop.
		s.ups = append(s.ups, s.set(attrExists, kv.N(0)), s.set(attrMzxid, kv.N(txid)), kv.Remove{Name: attrEph})
	}
}

func (s *commitScratch) parentUpdates(c change, txid int64) {
	pzxid := attrPzxid
	if c.ParentPath == znode.Root {
		pzxid = s.rootPzxid
	}
	switch c.Op {
	case OpCreate:
		s.ups = append(s.ups, kv.StrListAppend{Name: attrChildren, Vals: []string{strings.Clone(c.ChildAdd)}},
			kv.Add{Name: attrCversion, Delta: 1}, kv.Add{Name: attrSeq, Delta: 1}, s.set(pzxid, kv.N(txid)))
	case OpDelete:
		s.ups = append(s.ups, kv.StrListRemove{Name: attrChildren, Vals: []string{c.ChildDel}},
			kv.Add{Name: attrCversion, Delta: 1}, s.set(pzxid, kv.N(txid)))
	}
}

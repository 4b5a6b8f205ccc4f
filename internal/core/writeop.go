package core

// The write-op table: what create, set_data and delete require of the
// locked items, what they send to the leader and what they write to the
// system store — defined once. The follower (Algorithm 1), the leader's
// commit replay (Algorithm 2's TryCommit) and both multi() paths read it,
// so a rule cannot hold on one of them and drift on another.
//
//	op        locks (in order)   checks, in order                        node item                      parent item
//	create    parent, node       parent: no_node, no_children_for_eph;   exists=1, version=cversion=0,  children+=name, cversion+1,
//	                             node: node_exists                       c/m/pzxid=txid, eph=owner      seq+1, pzxid=txid
//	set_data  node               no_node, bad_version                    version=new, mzxid=txid        —
//	delete    parent, node       no_node, bad_version, not_empty,        exists=0, mzxid=txid, −eph     children−=name, cversion+1,
//	                             parent lists the node                                                  pzxid=txid
//
// Every target node also gets txid appended to its pending list, once per
// message (pendingAppend): that entry is what hands the change to the
// shard's serialized leader.

import (
	"faaskeeper/internal/cloud/kv"
	"faaskeeper/internal/txn"
	"faaskeeper/internal/znode"
)

// splicesParent reports whether the op changes its parent's child list.
// Such an op locks the parent before the node — a uniform top-down order
// prevents deadlocks between concurrent creates and deletes — and cannot
// target the root, which has no parent.
func splicesParent(op OpCode) bool { return op == OpCreate || op == OpDelete }

// checkPath is the table's pre-lock stage: the root always exists and can
// never be deleted.
func checkPath(op OpCode, path string) Code {
	switch {
	case path != znode.Root:
		return CodeOK
	case op == OpCreate:
		return CodeNodeExists
	case op == OpDelete:
		return CodeSystemError
	}
	return CodeOK
}

// checkParent is the first locked stage: it runs once the parent is
// locked, so a create that cannot succeed gives up before locking the node.
// (A delete's parent rule comes last in ZooKeeper's order: checkNode.)
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

// validatedMsg builds the leader message of a validated single op (step ③
// of Algorithm 1) from the states read under the locks. path is the final
// path (a sequential create's suffix resolved); owner is the ephemeral
// owner a create stamps. The caller adds the lock timestamps.
func validatedMsg(req Request, path, owner string, node, parent sysNode) leaderMsg {
	msg := leaderMsg{Session: req.Session, Seq: req.Seq, Op: req.Op, Path: path}
	switch req.Op {
	case OpSetData:
		msg.Version = node.Version + 1
		msg.NodeBlob = znode.Marshal(node.toZNode(path, req.Data), nil)
	case OpCreate:
		msg.NodeBlob = znode.Marshal(&znode.Node{
			Path: path,
			Data: req.Data,
			Stat: znode.Stat{Ephemeral: owner != "", Owner: owner},
		}, nil)
		msg.ChildAdd = znode.Base(path)
		msg.EphOwner = owner
	case OpDelete:
		msg.ChildDel = znode.Base(path)
		msg.EphOwner = node.EphOwner
	}
	if splicesParent(req.Op) {
		msg.ParentPath = znode.Parent(path)
		msg.Cversion = parent.Cversion + 1
	}
	return msg
}

// opMsgView adapts one resolved multi() sub-op to the leaderMsg shape the
// table and the watch query read.
func opMsgView(op txn.ResolvedOp) leaderMsg {
	return leaderMsg{
		Op: OpCode(op.Type), Path: op.Path, ParentPath: op.ParentPath,
		Version: op.Version, EphOwner: op.EphOwner,
		ChildAdd: op.ChildAdd, ChildDel: op.ChildDel,
	}
}

// commitUpdates is the system-store effect of one validated op committing
// at txid: the updates to its node item and to its parent's (nil where the
// op has none). The follower's step ④, the leader's replay of it and the
// transaction paths all write exactly these.
func commitUpdates(msg leaderMsg, txid int64) (node, parent []kv.Update) {
	switch msg.Op {
	case OpSetData:
		// Each capacity leaves room for the pending append.
		node = append(make([]kv.Update, 0, 3),
			kv.Set{Name: attrVersion, V: kv.N(int64(msg.Version))},
			kv.Set{Name: attrMzxid, V: kv.N(txid)})
	case OpCreate:
		node = append(make([]kv.Update, 0, 9),
			kv.Set{Name: attrExists, V: kv.N(1)},
			kv.Set{Name: attrVersion, V: kv.N(0)},
			kv.Set{Name: attrCversion, V: kv.N(0)},
			kv.Set{Name: attrCzxid, V: kv.N(txid)},
			kv.Set{Name: attrMzxid, V: kv.N(txid)},
			kv.Set{Name: attrPzxid, V: kv.N(txid)},
			kv.Set{Name: attrChildren, V: kv.StrList()})
		if msg.EphOwner != "" {
			node = append(node, kv.Set{Name: attrEph, V: kv.S(msg.EphOwner)})
		}
		parent = []kv.Update{
			kv.StrListAppend{Name: attrChildren, Vals: []string{msg.ChildAdd}},
			kv.Add{Name: attrCversion, Delta: 1},
			kv.Add{Name: attrSeq, Delta: 1},
			kv.Set{Name: attrPzxid, V: kv.N(txid)},
		}
	case OpDelete:
		// A tombstone (exists=0): the item stays so the leader can track
		// the pending transaction, and collects it after the pop.
		node = append(make([]kv.Update, 0, 4),
			kv.Set{Name: attrExists, V: kv.N(0)},
			kv.Set{Name: attrMzxid, V: kv.N(txid)},
			kv.Remove{Name: attrEph})
		parent = []kv.Update{
			kv.StrListRemove{Name: attrChildren, Vals: []string{msg.ChildDel}},
			kv.Add{Name: attrCversion, Delta: 1},
			kv.Set{Name: attrPzxid, V: kv.N(txid)},
		}
	}
	return node, parent
}

// pendingAppend enters txid into a target node's pending list.
func pendingAppend(txid int64) kv.Update {
	return kv.ListAppend{Name: attrPending, Vals: []int64{txid}}
}

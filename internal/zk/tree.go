package zk

import (
	"sort"

	"faaskeeper/internal/core"
	"faaskeeper/internal/znode"
)

// tree is one server's replica of the ZooKeeper data tree. The leader
// keeps a second, speculative tree it mutates at proposal time, so
// pipelined writes validate against the future state (the equivalent of
// ZooKeeper's outstanding-changes list).
type tree struct {
	nodes map[string]*znode.Node
	seq   map[string]int64    // per-parent sequential-node counters
	eph   map[string][]string // session -> owned ephemeral paths
}

func newTree() *tree {
	t := &tree{
		nodes: map[string]*znode.Node{},
		seq:   map[string]int64{},
		eph:   map[string][]string{},
	}
	t.nodes[znode.Root] = &znode.Node{Path: znode.Root}
	return t
}

func (t *tree) clone() *tree {
	out := newTree()
	for p, n := range t.nodes {
		out.nodes[p] = n.Clone()
	}
	for p, s := range t.seq {
		out.seq[p] = s
	}
	for s, paths := range t.eph {
		out.eph[s] = append([]string(nil), paths...)
	}
	return out
}

func (t *tree) get(path string) (*znode.Node, bool) {
	n, ok := t.nodes[path]
	return n, ok
}

// validate checks a write request against the current (speculative) state
// and, for creates, resolves the final sequential path and ephemeral
// owner. It mirrors the semantics checks of the FaaSKeeper follower.
func (t *tree) validate(session string, req request) (code core.Code, finalPath, owner string) {
	switch req.Op {
	case OpCreate:
		parentPath := znode.Parent(req.Path)
		parent, ok := t.nodes[parentPath]
		if !ok {
			return core.CodeNoNode, "", ""
		}
		if parent.Stat.Ephemeral {
			return core.CodeNoChildrenEph, "", ""
		}
		finalPath = req.Path
		if req.Flags&znode.FlagSequential != 0 {
			finalPath = znode.SequentialName(req.Path, t.seq[parentPath])
		}
		if _, exists := t.nodes[finalPath]; exists {
			return core.CodeNodeExists, "", ""
		}
		if req.Flags&znode.FlagEphemeral != 0 {
			owner = session
		}
		return core.CodeOK, finalPath, owner
	case OpSetData:
		n, ok := t.nodes[req.Path]
		if !ok {
			return core.CodeNoNode, "", ""
		}
		if req.Version != -1 && req.Version != n.Stat.Version {
			return core.CodeBadVersion, "", ""
		}
		return core.CodeOK, req.Path, ""
	case OpDelete:
		if req.Path == znode.Root {
			return core.CodeBadArguments, "", "" // as ZooKeeper and core.checkPath
		}
		n, ok := t.nodes[req.Path]
		if !ok {
			return core.CodeNoNode, "", ""
		}
		if req.Version != -1 && req.Version != n.Stat.Version {
			return core.CodeBadVersion, "", ""
		}
		if len(n.Children) > 0 {
			return core.CodeNotEmpty, "", ""
		}
		return core.CodeOK, req.Path, ""
	case OpCheck:
		n, ok := t.nodes[req.Path]
		if !ok {
			return core.CodeNoNode, "", ""
		}
		if req.Version != -1 && req.Version != n.Stat.Version {
			return core.CodeBadVersion, "", ""
		}
		return core.CodeOK, req.Path, ""
	}
	return core.CodeOK, req.Path, ""
}

// firedEvent describes a watch-relevant change produced by applying a txn.
type firedEvent struct {
	Type core.EventType
	Path string
}

// apply mutates the tree with a committed transaction and returns the
// node's resulting stat plus the watch events the change triggers.
func (t *tree) apply(x *ztxn) (znode.Stat, []firedEvent) {
	switch x.Type {
	case txnCreate:
		return t.applyCreate(x)
	case txnSetData:
		return t.applySetData(x)
	case txnDelete:
		return t.applyDelete(x)
	case txnCloseSession:
		return znode.Stat{}, t.applyCloseSession(x)
	case txnMulti:
		// All sub-transactions apply at one zxid — ZooKeeper's multi is a
		// single replicated transaction, never partially visible.
		var stat znode.Stat
		var events []firedEvent
		for _, sub := range x.Sub {
			st, evs := t.apply(sub)
			stat = st
			events = append(events, evs...)
		}
		return stat, events
	}
	return znode.Stat{}, nil
}

func (t *tree) applyCreate(x *ztxn) (znode.Stat, []firedEvent) {
	parentPath := znode.Parent(x.Path)
	parent := t.nodes[parentPath]
	n := &znode.Node{
		Path: x.Path,
		Data: append([]byte(nil), x.Data...),
		Stat: znode.Stat{
			Czxid: x.Zxid, Mzxid: x.Zxid, Pzxid: x.Zxid,
			Ephemeral: x.Owner != "", Owner: x.Owner,
			DataLength: int32(len(x.Data)),
		},
	}
	t.nodes[x.Path] = n
	parent.Children = append(parent.Children, znode.Base(x.Path))
	parent.Stat.Cversion++
	parent.Stat.Pzxid = x.Zxid
	parent.Stat.NumChildren = int32(len(parent.Children))
	t.seq[parentPath]++
	if x.Owner != "" {
		t.eph[x.Owner] = append(t.eph[x.Owner], x.Path)
	}
	return n.Stat, []firedEvent{
		{core.EventCreated, x.Path},
		{core.EventChildrenChanged, parentPath},
	}
}

func (t *tree) applySetData(x *ztxn) (znode.Stat, []firedEvent) {
	n, ok := t.nodes[x.Path]
	if !ok {
		return znode.Stat{}, nil
	}
	n.Data = append([]byte(nil), x.Data...)
	n.Stat.Version++
	n.Stat.Mzxid = x.Zxid
	n.Stat.DataLength = int32(len(x.Data))
	return n.Stat, []firedEvent{{core.EventDataChanged, x.Path}}
}

func (t *tree) applyDelete(x *ztxn) (znode.Stat, []firedEvent) {
	n, ok := t.nodes[x.Path]
	if !ok {
		return znode.Stat{}, nil
	}
	parentPath := znode.Parent(x.Path)
	parent := t.nodes[parentPath]
	delete(t.nodes, x.Path)
	if parent != nil {
		kept := parent.Children[:0:0]
		name := znode.Base(x.Path)
		for _, c := range parent.Children {
			if c != name {
				kept = append(kept, c)
			}
		}
		parent.Children = kept
		parent.Stat.Cversion++
		parent.Stat.Pzxid = x.Zxid
		parent.Stat.NumChildren = int32(len(parent.Children))
	}
	if n.Stat.Owner != "" {
		owned := t.eph[n.Stat.Owner][:0:0]
		for _, p := range t.eph[n.Stat.Owner] {
			if p != x.Path {
				owned = append(owned, p)
			}
		}
		t.eph[n.Stat.Owner] = owned
	}
	return n.Stat, []firedEvent{
		{core.EventDeleted, x.Path},
		{core.EventChildrenChanged, parentPath},
	}
}

// applyCloseSession removes every ephemeral node the session owns, in
// deterministic path order, and returns all fired events.
func (t *tree) applyCloseSession(x *ztxn) []firedEvent {
	paths := append([]string(nil), t.eph[x.SessionID]...)
	sort.Strings(paths)
	var events []firedEvent
	for _, p := range paths {
		if _, ok := t.nodes[p]; !ok {
			continue
		}
		_, evs := t.applyDelete(&ztxn{Zxid: x.Zxid, Type: txnDelete, Path: p})
		events = append(events, evs...)
	}
	delete(t.eph, x.SessionID)
	return events
}

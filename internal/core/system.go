package core

import (
	"faaskeeper/internal/cloud"
	"faaskeeper/internal/cloud/kv"
	"faaskeeper/internal/znode"
)

// System-store key prefixes and attribute names. One DynamoDB-like table
// holds three kinds of items (Section 3.3): per-node control records (lock
// timestamp, committed metadata, pending transactions, watch
// registrations), session records, and the region epoch counters. A node's
// control record is keyed by the node's path; every other key is
// "<kind>:<id>" or a fixed word, so none starts with "/" and the two
// namespaces cannot meet.
const (
	sessionKeyPrefix = "session:"
	epochKeyPrefix   = "epoch:"
	deregKeyPrefix   = "dereg:"

	// rootUpdateLockKey is the timed-lock item serializing cross-shard
	// read-modify-write cycles on the root node's user-store object.
	rootUpdateLockKey = "rootupdate"

	// attrDeregAcks accumulates "<deregID>/<shard>" markers on the
	// deregistration barrier item; deregSeqKey holds the system-store
	// counter minting the ids (followers are stateless, so the id must
	// survive restarts to keep abandoned-fanout markers distinguishable).
	attrDeregAcks = "acks"
	deregSeqKey   = "deregseq"
	attrDeregSeq  = "n"

	attrExists   = "exists"
	attrVersion  = "version"
	attrCversion = "cversion"
	attrCzxid    = "czxid"
	attrMzxid    = "mzxid"
	attrPzxid    = "pzxid"
	attrChildren = "children"
	attrEph      = "eph"
	attrSeq      = "seq"
	attrPending  = "pending"

	attrSessionEph  = "eph"
	attrSessionReg  = "reg"
	attrSessionAddr = "addr"

	attrWatchData   = "w_data"
	attrWatchExists = "w_exists"
	attrWatchChild  = "w_child"

	attrEpochList = "w"
)

// watchAttrs names each watch type's session list on a control record,
// indexed by WatchType-1.
var watchAttrs = [...]string{attrWatchData, attrWatchExists, attrWatchChild}

func sessionKey(id string) string { return sessionKeyPrefix + id }
func deregKey(id string) string   { return deregKeyPrefix + id }

// epochKey names a region's watch epoch item. It holds every leader shard's
// in-flight watch list, one attribute per shard (Deployment.epochAttrs;
// shard 0's is attrEpochList, so a one-shard item is the paper's counter).
// One strongly consistent read of it is an atomic snapshot of the region's
// union, and shards still never contend: each writes only its own
// attribute, with unconditional updates. A region's key is built on first
// use and kept: every leader invocation reads it.
func (d *Deployment) epochKey(r cloud.Region) string {
	key, ok := d.epochKeys[r]
	if !ok {
		key = epochKeyPrefix + string(r)
		d.epochKeys[r] = key
	}
	return key
}

// epochUnion appends to ids a copy of the union of an epoch item's
// per-shard lists, in shard order: the item may be a read-only view, and
// callers append to the union (queryWatches).
func (d *Deployment) epochUnion(ids []int64, it kv.Item) []int64 {
	for _, attr := range d.epochAttrs {
		ids = append(ids, it.Get(attr).NL()...)
	}
	return ids
}

// sysNode is the decoded view of a per-node system item.
type sysNode struct {
	Exists   bool
	Version  int32
	Cversion int32
	Czxid    int64
	Mzxid    int64
	Pzxid    int64
	Children []string
	EphOwner string
	SeqCtr   int64
	Pending  []int64
	// Watches lists the sessions registered for each watch type (index
	// WatchType-1). They live on the record whose change fires them, so
	// the commit check's read of a change returns them.
	Watches [len(watchAttrs)][]string
}

func decodeSysNode(it kv.Item) sysNode {
	if it == nil {
		return sysNode{}
	}
	n := sysNode{
		Exists:   it.Get(attrExists).Num() == 1,
		Version:  int32(it.Get(attrVersion).Num()),
		Cversion: int32(it.Get(attrCversion).Num()),
		Czxid:    it.Get(attrCzxid).Num(),
		Mzxid:    it.Get(attrMzxid).Num(),
		Pzxid:    it.Get(attrPzxid).Num(),
		// Children, Pending and Watches are views of values in table
		// storage, which stay valid and unchanged forever, while the item
		// itself is valid only until its reader blocks: every caller
		// decodes it first. plan.validate copies the child list before it
		// splices.
		Children: it.Get(attrChildren).SL(),
		EphOwner: it.Get(attrEph).Str(),
		SeqCtr:   it.Get(attrSeq).Num(),
		Pending:  it.Get(attrPending).NL(),
	}
	for i, attr := range watchAttrs {
		n.Watches[i] = it.Get(attr).SL()
	}
	return n
}

// hasChild reports whether the child name is present.
func (s sysNode) hasChild(name string) bool {
	for _, c := range s.Children {
		if c == name {
			return true
		}
	}
	return false
}

// toZNode builds the client-visible node from system metadata plus data,
// its child list a view of s's: the node is for Marshal, which only reads.
func (s sysNode) toZNode(path string, data []byte) znode.Node {
	return znode.Node{
		Path: path,
		Data: data,
		Stat: znode.Stat{
			Czxid:       s.Czxid,
			Mzxid:       s.Mzxid,
			Pzxid:       s.Pzxid,
			Version:     s.Version,
			Cversion:    s.Cversion,
			Ephemeral:   s.EphOwner != "",
			Owner:       s.EphOwner,
			DataLength:  int32(len(data)),
			NumChildren: int32(len(s.Children)),
		},
		Children: s.Children,
	}
}

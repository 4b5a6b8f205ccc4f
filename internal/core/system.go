package core

import (
	"strconv"

	"faaskeeper/internal/cloud"
	"faaskeeper/internal/cloud/kv"
	"faaskeeper/internal/znode"
)

// System-store key prefixes and attribute names. One DynamoDB-like table
// holds four kinds of items (Section 3.3): per-node control records (lock
// timestamp, committed metadata, pending transactions), session records,
// watch registrations, and the region epoch counters.
const (
	nodeKeyPrefix    = "node:"
	sessionKeyPrefix = "session:"
	watchKeyPrefix   = "watch:"
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

	// attrTxnCommitMark fences a node item committed by a cross-shard
	// transaction (package txn): the value is the transaction id. The
	// coordinator's commit sets it on every item it locked, and only the
	// coordinator clears it, after the transaction's user-store apply — so
	// no conflicting write can slip between the commit and the atomic apply.
	// Writers finding a mark consult the transaction record and either clear
	// a stale one or wait (see lockNodeClean).
	attrTxnCommitMark = "txnmark"

	attrSessionEph  = "eph"
	attrSessionReg  = "reg"
	attrSessionAddr = "addr"

	attrWatchData   = "w_data"
	attrWatchExists = "w_exists"
	attrWatchChild  = "w_child"

	attrEpochList = "w"
)

func nodeKey(path string) string  { return nodeKeyPrefix + path }
func sessionKey(id string) string { return sessionKeyPrefix + id }
func watchKey(path string) string { return watchKeyPrefix + path }
func deregKey(id string) string   { return deregKeyPrefix + id }

// epochKey names the per-region, per-shard watch epoch counter. Each
// leader shard keeps its own in-flight watch list, so shards never contend
// on epoch bookkeeping. A region's names are built on first use and kept:
// every leader invocation reads them.
func (d *Deployment) epochKey(r cloud.Region, shard int) string {
	keys := d.epochKeys[r]
	if keys == nil {
		keys = make([]string, d.NumShards())
		for s := range keys {
			keys[s] = epochKeyPrefix + string(r) + "/" + strconv.Itoa(s)
		}
		d.epochKeys[r] = keys
	}
	return keys[shard]
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
	TxnMark  int64 // cross-shard transaction fencing this node (0 = none)
}

func decodeSysNode(it kv.Item) sysNode {
	if it == nil {
		return sysNode{}
	}
	return sysNode{
		Exists:   it.Get(attrExists).Num == 1,
		Version:  int32(it.Get(attrVersion).Num),
		Cversion: int32(it.Get(attrCversion).Num),
		Czxid:    it.Get(attrCzxid).Num,
		Mzxid:    it.Get(attrMzxid).Num,
		Pzxid:    it.Get(attrPzxid).Num,
		// Children is copied: the item may be a read-only GetView of table
		// storage, and callers append to the list (spliceInto via
		// buildUserNode). Pending stays a view — all uses are read-only.
		Children: append([]string(nil), it.Get(attrChildren).SL...),
		EphOwner: it.Get(attrEph).Str,
		SeqCtr:   it.Get(attrSeq).Num,
		Pending:  it.Get(attrPending).NL,
		TxnMark:  it.Get(attrTxnCommitMark).Num,
	}
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

// toZNode builds the client-visible node from system metadata plus data.
func (s sysNode) toZNode(path string, data []byte) *znode.Node {
	return &znode.Node{
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
		Children: append([]string(nil), s.Children...),
	}
}

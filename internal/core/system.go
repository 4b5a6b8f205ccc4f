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

	// watchSetKeyPrefix items record each session's persistent watch
	// registrations (fan-out tier only): one string list of watched
	// paths, durable and cheap to read back at connect time for
	// watch-set cache warm-up.
	watchSetKeyPrefix = "watchset:"
	attrWatchSet      = "paths"

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

	// attrTxnIntent marks a node item claimed by an in-flight cross-shard
	// transaction (package txn): the value is the transaction id. Unlike
	// the timed lock it never lease-expires — only the transaction's
	// commit or abort clears it, so a committed decision can always apply.
	// Writers finding a foreign intent consult the transaction record and
	// either clear a stale one or wait (see lockNodeClean).
	attrTxnIntent = "txnintent"

	// attrTxnCommitMark makes the cross-shard commit's per-item updates
	// idempotent: the conditional commit requires the intent AND the mark
	// to be absent for this transaction id, so the coordinator and a
	// leader replaying on its behalf can race without double-applying.
	// Both attributes are cleared together after the transaction's
	// user-store apply — the intent stays up to that point so no
	// conflicting write can slip between a shard's commit and the
	// atomic apply.
	attrTxnCommitMark = "txnmark"

	attrSessionEph  = "eph"
	attrSessionReg  = "reg"
	attrSessionAddr = "addr"

	attrWatchData   = "w_data"
	attrWatchExists = "w_exists"
	attrWatchChild  = "w_child"

	attrEpochList = "w"
)

func nodeKey(path string) string   { return nodeKeyPrefix + path }
func sessionKey(id string) string  { return sessionKeyPrefix + id }
func watchKey(path string) string  { return watchKeyPrefix + path }
func deregKey(id string) string    { return deregKeyPrefix + id }
func watchSetKey(id string) string { return watchSetKeyPrefix + id }

// epochKey names the per-region, per-shard watch epoch counter. Each
// leader shard keeps its own in-flight watch list, so shards never contend
// on epoch bookkeeping.
func epochKey(r cloud.Region, shard int) string {
	return epochKeyPrefix + string(r) + "/" + strconv.Itoa(shard)
}

// sysNode is the decoded view of a per-node system item.
type sysNode struct {
	Exists    bool
	Version   int32
	Cversion  int32
	Czxid     int64
	Mzxid     int64
	Pzxid     int64
	Children  []string
	EphOwner  string
	SeqCtr    int64
	Pending   []int64
	TxnIntent int64 // in-flight transaction id holding this node (0 = none)
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
		Children:  append([]string(nil), it.Get(attrChildren).SL...),
		EphOwner:  it.Get(attrEph).Str,
		SeqCtr:    it.Get(attrSeq).Num,
		Pending:   it.Get(attrPending).NL,
		TxnIntent: it.Get(attrTxnIntent).Num,
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

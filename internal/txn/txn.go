// Package txn is the cross-shard transaction coordinator subsystem behind
// FaaSKeeper's ZooKeeper-style multi(): the operation vocabulary, the
// shard routing of an operation list, and the durable transaction record
// that drives a two-phase commit across the sharded leader pipelines.
//
// The package deliberately owns only the protocol state — op lists, the
// record's status machine (preparing → committed → applied, or aborted),
// and the storage-backed vote/ready barriers modeled on the deregistration
// fanout ack pattern. The pipeline integration (intent locks on node
// items, leader-queue commit messages, the atomic user-store apply) lives
// in package core, which imports this one.
package txn

import (
	"sort"

	"faaskeeper/internal/znode"
)

// OpType identifies one sub-operation of a multi().
type OpType string

// Multi sub-operation types, following ZooKeeper's multi vocabulary.
const (
	OpCreate  OpType = "create"
	OpSetData OpType = "set_data"
	OpDelete  OpType = "delete"
	OpCheck   OpType = "check" // version guard: validates, changes nothing
)

// Op is one requested sub-operation of a multi().
type Op struct {
	Type    OpType
	Path    string
	Data    []byte
	Version int32 // expected version; -1 matches any (ignored for create)
	Flags   znode.Flags
}

// Create builds a create sub-op.
func Create(path string, data []byte, flags znode.Flags) Op {
	return Op{Type: OpCreate, Path: path, Data: data, Version: -1, Flags: flags}
}

// SetData builds a set_data sub-op.
func SetData(path string, data []byte, version int32) Op {
	return Op{Type: OpSetData, Path: path, Data: data, Version: version}
}

// Delete builds a delete sub-op.
func Delete(path string, version int32) Op {
	return Op{Type: OpDelete, Path: path, Version: version}
}

// Check builds a version-check sub-op (-1 checks bare existence).
func Check(path string, version int32) Op {
	return Op{Type: OpCheck, Path: path, Version: version}
}

// Result is one sub-operation's client-visible outcome. Code uses the
// service's ZooKeeper error vocabulary ("ok", "no_node", "bad_version",
// ...); CodeAborted marks sub-ops rolled back because a sibling failed
// validation.
type Result struct {
	Type OpType
	Path string // final path (differs from the request for sequential nodes)
	Code string
	Stat znode.Stat
	Txid int64
}

// Code values the coordinator itself produces (the rest of the vocabulary
// comes from the validating pipeline and matches core's result codes).
const (
	CodeOK      = "ok"
	CodeAborted = "txn_aborted" // rolled back: a sibling op failed validation
)

// ResolvedOp is a validated sub-operation with everything the commit phase
// needs to rebuild its system-store updates and user-store state on any
// actor — the coordinator after a crash, or a shard leader replaying a
// commit. It is what the durable record stores once the decision is
// committed.
type ResolvedOp struct {
	Type       OpType
	Path       string // final path (sequential suffix resolved)
	ParentPath string // "" for set_data/check
	Data       []byte
	Version    int32 // node's new data version (set_data), 0 for create
	Cversion   int32 // parent's new child version (create/delete)
	EphOwner   string
	ChildAdd   string
	ChildDel   string
	Shard      int
}

// Effectful reports whether the op mutates state (checks do not).
func (r ResolvedOp) Effectful() bool { return r.Type != OpCheck }

// Route partitions a multi's ops among write shards: shardOf is the
// deployment's path-to-shard function (its route's ShardFor).
// It returns the participant shards in ascending order and the op indices
// owned by each. Parent items are colocated with their children by the
// sharding design, so an op's shard is fully determined by its own path.
func Route(ops []Op, shardOf func(string) int) (shards []int, byShard map[int][]int) {
	byShard = map[int][]int{}
	for i, op := range ops {
		s := shardOf(op.Path)
		byShard[s] = append(byShard[s], i)
	}
	for s := range byShard {
		shards = append(shards, s)
	}
	sort.Ints(shards)
	return shards, byShard
}

// Package txn is the vocabulary of FaaSKeeper's ZooKeeper-style multi():
// the requested sub-operations, their per-op results, and the request's
// wire codec. The pipeline integration (validation under the locks into the
// changes a leader message carries, the one-message commit, the atomic
// user-store apply) lives in package core, which imports this one.
package txn

import "faaskeeper/internal/znode"

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

// Code values package txn names (the rest of the vocabulary comes from the
// validating pipeline and matches core's result codes).
const (
	CodeOK      = "ok"
	CodeAborted = "txn_aborted" // rolled back: a sibling op failed validation
)

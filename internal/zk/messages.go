// Package zk implements the baseline ZooKeeper that FaaSKeeper is compared
// against throughout the evaluation: an ensemble of in-simulation servers
// running a ZAB-style atomic broadcast (propose / quorum-ack / commit),
// client sessions over ordered TCP-like links with FIFO request handling,
// reads served from the local replica, ordered watch delivery, and
// heartbeat-driven session expiry that removes ephemeral nodes.
package zk

import (
	"faaskeeper/internal/core"
	"faaskeeper/internal/txn"
	"faaskeeper/internal/znode"
)

// OpCode identifies a client request type.
type OpCode uint8

// Client operations.
const (
	OpCreate OpCode = iota + 1
	OpSetData
	OpDelete
	OpGetData
	OpExists
	OpGetChildren
	OpPing
	OpCloseSession
	OpCheck // version guard inside a multi
	OpMulti // atomic multi-op transaction
)

// subOps maps a multi()'s sub-operation types to the request they validate as.
var subOps = map[txn.OpType]OpCode{
	txn.OpCreate: OpCreate, txn.OpSetData: OpSetData, txn.OpDelete: OpDelete, txn.OpCheck: OpCheck,
}

// request travels client -> server over the session connection.
type request struct {
	Seq      int64
	Op       OpCode
	Path     string
	Data     []byte
	Version  int32
	Flags    znode.Flags
	Watch    bool
	MultiOps []txn.Op
}

func (r request) wireSize() int {
	n := len(r.Path) + len(r.Data) + 48
	for _, op := range r.MultiOps {
		n += len(op.Path) + len(op.Data) + 16
	}
	return n
}

// Result codes are FaaSKeeper's (core.Code), so both clients answer with one
// set of errors (core.CodeError). codeClosed is the baseline's own: no
// leader is alive to order the write.
const codeClosed core.Code = "closed"

// response travels server -> client.
type response struct {
	Seq      int64
	Code     core.Code
	Path     string
	Data     []byte
	Stat     znode.Stat
	Children []string
	Exists   bool
	Results  []txn.Result // a multi()'s per-op outcomes
}

func (r response) wireSize() int { return len(r.Path) + len(r.Data) + 64 + 8*len(r.Children) }

// sessionMsg is one message on a client's session connection: a request
// from the client, or a response or (isEvent) a watch event from its server.
// An event is FaaSKeeper's notification type, its Txid the zxid; because the
// connection is FIFO, events are ordered with respect to replies (Z4).
type sessionMsg struct {
	req     request
	resp    response
	event   core.Notification
	isEvent bool
}

func eventWireSize(ev core.Notification) int { return len(ev.Path) + 24 }

// txnType is the kind of a replicated transaction.
type txnType uint8

const (
	txnCreate txnType = iota + 1
	txnSetData
	txnDelete
	txnCloseSession
	txnMulti // an atomic batch of sub-transactions sharing one zxid
)

// ztxn is one replicated state change: the unit ZAB agrees on.
type ztxn struct {
	Zxid      int64
	Type      txnType
	Path      string
	Data      []byte
	Flags     znode.Flags
	Owner     string  // ephemeral owner session
	SessionID string  // originating session (close-session txns)
	Sub       []*ztxn // txnMulti: the sub-transactions, applied atomically

	// Filled by the leader when it validates and sequences the request.
	origin *pendingWrite
}

// size is the replication payload size.
func (t *ztxn) size() int {
	n := len(t.Path) + len(t.Data) + 48
	for _, sub := range t.Sub {
		n += sub.size()
	}
	return n
}

// pendingWrite tracks a client write from proposal to commit.
type pendingWrite struct {
	serverID int // server that owns the client session
	session  *serverSession
	req      request
	code     core.Code // validation verdict decided by the leader
	path     string
	stat     znode.Stat
	results  []txn.Result // a multi()'s per-op outcomes
	barrier  interface{ TryComplete(struct{}) bool }
}

// peerMsgType is the inter-server protocol message kind.
type peerMsgType uint8

const (
	msgForward peerMsgType = iota + 1 // follower -> leader: client write
	msgPropose                        // leader -> follower: proposal
	msgAck                            // follower -> leader: proposal logged
	msgCommit                         // leader -> follower: commit
	msgReject                         // leader -> origin: validation failure
)

// peerMsg is one inter-server protocol message.
type peerMsg struct {
	Type peerMsgType
	From int
	Txn  *ztxn
	Zxid int64
}

func (m peerMsg) wireSize() int {
	if m.Txn != nil {
		return m.Txn.size() + 16
	}
	return 24
}

// Package zk implements the baseline ZooKeeper that FaaSKeeper is compared
// against throughout the evaluation: an ensemble of in-simulation servers
// running a ZAB-style atomic broadcast (propose / quorum-ack / commit),
// client sessions over ordered TCP-like links with FIFO request handling,
// reads served from the local replica, ordered watch delivery, and
// heartbeat-driven session expiry that removes ephemeral nodes.
package zk

import (
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

// MultiOp is one sub-operation of a baseline multi() transaction.
type MultiOp struct {
	Op      OpCode
	Path    string
	Data    []byte
	Version int32
	Flags   znode.Flags
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
	MultiOps []MultiOp
}

func (r request) wireSize() int {
	n := len(r.Path) + len(r.Data) + 48
	for _, op := range r.MultiOps {
		n += len(op.Path) + len(op.Data) + 16
	}
	return n
}

// Code is a ZooKeeper result code.
type Code uint8

// Result codes.
const (
	CodeOK Code = iota
	CodeNodeExists
	CodeNoNode
	CodeBadVersion
	CodeNotEmpty
	CodeNoChildrenEph
	CodeClosed
)

// response travels server -> client.
type response struct {
	Seq      int64
	Code     Code
	Path     string
	Data     []byte
	Stat     znode.Stat
	Children []string
	Exists   bool
}

func (r response) wireSize() int { return len(r.Path) + len(r.Data) + 64 + 8*len(r.Children) }

// sessionMsg is one message on a client's session connection: a request
// from the client, or a response or (isEvent) a watch event from its server.
type sessionMsg struct {
	req     request
	resp    response
	event   WatchEvent
	isEvent bool
}

// WatchEvent is pushed to clients over the session connection; because the
// connection is FIFO, events are ordered with respect to replies (Z4).
type WatchEvent struct {
	Type EventType
	Path string
	Zxid int64
}

func (e WatchEvent) wireSize() int { return len(e.Path) + 24 }

// EventType mirrors ZooKeeper's watch event types.
type EventType uint8

// Event types.
const (
	EventDataChanged EventType = iota + 1
	EventCreated
	EventDeleted
	EventChildrenChanged
)

// txnType is the kind of a replicated transaction.
type txnType uint8

const (
	txnCreate txnType = iota + 1
	txnSetData
	txnDelete
	txnCloseSession
	txnMulti // an atomic batch of sub-transactions sharing one zxid
)

// txn is one replicated state change: the unit ZAB agrees on.
type txn struct {
	Zxid      int64
	Type      txnType
	Path      string
	Data      []byte
	Flags     znode.Flags
	Owner     string // ephemeral owner session
	SessionID string // originating session (close-session txns)
	Sub       []*txn // txnMulti: the sub-transactions, applied atomically

	// Filled by the leader when it validates and sequences the request.
	origin *pendingWrite
}

// size is the replication payload size.
func (t *txn) size() int {
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
	code     Code // validation verdict decided by the leader
	path     string
	stat     znode.Stat
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
	Txn  *txn
	Zxid int64
}

func (m peerMsg) wireSize() int {
	if m.Txn != nil {
		return m.Txn.size() + 16
	}
	return 24
}

// Package core implements FaaSKeeper itself — the paper's contribution: a
// ZooKeeper-compatible coordination service built entirely from serverless
// components. Write requests flow from per-session FIFO queues through
// concurrently operating follower functions (Algorithm 1) into one of N
// ordered leader queues — partitioned by znode subtree, a single global
// queue in the paper's base configuration — each feeding a serialized
// leader instance (Algorithm 2), which
// distributes committed changes to the user-visible store, fires watch
// notifications through a free watch function, and a scheduled heartbeat
// function prunes dead sessions. Reads never touch a function: clients
// access the user store directly.
package core

import (
	"errors"
	"fmt"
	"hash/fnv"

	"faaskeeper/internal/obs"
	"faaskeeper/internal/txn"
	"faaskeeper/internal/znode"
)

// OpCode identifies a write operation flowing through the queues.
type OpCode string

// Write operations.
const (
	OpCreate     OpCode = "create"
	OpSetData    OpCode = "set_data"
	OpDelete     OpCode = "delete"
	OpDeregister OpCode = "deregister" // session close / eviction

	// OpMulti is a client multi() request; on the leader queue it carries
	// the transaction's validated sub-ops (leaderMsg.Ops).
	OpMulti OpCode = "multi"
)

// opCodes is every op code a request or a change carries, which the codec
// decodes to these constants without allocating.
var opCodes = []string{string(OpSetData), string(OpCreate), string(OpDelete), string(OpDeregister), string(OpMulti), string(txn.OpCheck)}

// Code is the result of a write request, following ZooKeeper's error
// vocabulary.
type Code string

// Result codes.
const (
	CodeOK            Code = "ok"
	CodeNodeExists    Code = "node_exists"
	CodeNoNode        Code = "no_node"
	CodeBadVersion    Code = "bad_version"
	CodeNotEmpty      Code = "not_empty"
	CodeNoChildrenEph Code = "no_children_for_ephemerals"
	CodeSystemError   Code = "system_error"
	CodeTooLarge      Code = "too_large"
	CodeTxnAborted    Code = "txn_aborted"   // multi() rolled back: a sibling op failed
	CodeCrossShard    Code = "cross_shard"   // multi() writes more than one shard
	CodeBadArguments  Code = "bad_arguments" // a request no state can satisfy: delete /
)

// Client-facing errors corresponding to result codes.
var (
	ErrNodeExists    = errors.New("faaskeeper: node already exists")
	ErrNoNode        = errors.New("faaskeeper: node does not exist")
	ErrBadVersion    = errors.New("faaskeeper: version mismatch")
	ErrNotEmpty      = errors.New("faaskeeper: node has children")
	ErrNoChildrenEph = errors.New("faaskeeper: ephemeral nodes cannot have children")
	ErrSystemError   = errors.New("faaskeeper: system error")
	ErrTooLarge      = errors.New("faaskeeper: node data too large")
	ErrSessionClosed = errors.New("faaskeeper: session closed")
	ErrTxnAborted    = errors.New("faaskeeper: transaction aborted")
	ErrCrossShard    = errors.New("faaskeeper: transaction spans write shards")
	ErrBadArguments  = errors.New("faaskeeper: bad arguments")
	// ErrTimeout is returned when a request receives no answer in time.
	ErrTimeout = errors.New("fkclient: request timed out")
)

// CodeError converts a result code to the client-facing error (nil for OK).
func CodeError(c Code) error {
	switch c {
	case CodeOK:
		return nil
	case CodeNodeExists:
		return ErrNodeExists
	case CodeNoNode:
		return ErrNoNode
	case CodeBadVersion:
		return ErrBadVersion
	case CodeNotEmpty:
		return ErrNotEmpty
	case CodeNoChildrenEph:
		return ErrNoChildrenEph
	case CodeTooLarge:
		return ErrTooLarge
	case CodeTxnAborted:
		return ErrTxnAborted
	case CodeCrossShard:
		return ErrCrossShard
	case CodeBadArguments:
		return ErrBadArguments
	default:
		return fmt.Errorf("%w: %s", ErrSystemError, c)
	}
}

// Request is a client write request, serialized into the session queue.
// The wire format is binary (package wire; codecs in wirecodec.go): unlike
// JSON's base64 expansion, a 250 kB payload stays within SQS's 256 kB
// message limit, which is exactly how the paper sizes its maximum node
// (Section 4.4). An OpMulti request carries its sub-operations
// (txn.EncodeOps) in Data.
type Request struct {
	Session string
	Seq     int64 // client-side FIFO sequence
	Op      OpCode
	Path    string
	Data    []byte
	Version int32 // expected version; -1 matches any
	Flags   znode.Flags

	// traceID is the request's causal trace id (package obs), the wire
	// format's trailing field. Any stage can recompute it from (Session,
	// Seq), so hand-built values may leave it zero.
	traceID int64
}

// trace returns the causal trace id: the decoded wire field when present,
// else re-minted from (Session, Seq) — deterministic, so every pipeline
// stage derives the same id without any wire support.
func (r Request) trace() int64 {
	if r.traceID != 0 {
		return r.traceID
	}
	return obs.TraceOf(r.Session, r.Seq)
}

// change is one validated create, set_data or delete — or a multi()'s
// check, which changes nothing — as the follower decided it under the
// locks: everything that commits it (the follower, the leader's replay) and
// everything that distributes it reads this, and nothing else.
type change struct {
	Op         OpCode
	Path       string // final path (a sequential create's suffix resolved)
	ParentPath string // "" for set_data and check

	// NodeBlob is the node as of the change, marshaled: a set_data's is the
	// follower's snapshot of the control record under the node lock (every
	// change to its children holds that lock too, so the snapshot is the
	// state at the change's txid), a create's its data and owner. The leader
	// stamps only what the txid decides (buildUserNode). Nil for a delete.
	// A decoded change's is a view into the message; the follower builds
	// image instead, which the encoder marshals in NodeBlob's place, so the
	// blob is built once, inside the message.
	NodeBlob []byte
	image    znode.Node

	Version  int32 // node's new data version
	Cversion int32 // parent's new child version
	EphOwner string
	ChildAdd string
	ChildDel string
}

// effectful reports whether the change writes anything (a check does not).
func (c change) effectful() bool { return c.Op != OpCode(txn.OpCheck) }

// leaderMsg is the follower-to-leader message carrying a validated change
// (step ③ of Algorithm 1), or a multi()'s validated changes. The queue's
// sequence number becomes the transaction id.
type leaderMsg struct {
	Session string
	Seq     int64
	// A multi()'s own change is Op and Path alone: OpMulti and its anchor,
	// the first effectful op's path (anchorPath).
	change

	// Shard is the leader pipeline this message was routed to; txids are
	// derived from the shard queue's sequence number via shardTxid.
	Shard int
	// Fanout is set on OpDeregister acks: the number of shards the ack was
	// replicated to. The last shard to process its copy answers the client,
	// so the ack still orders behind every ephemeral deletion on every
	// shard the session touched. DeregID distinguishes this fanout from
	// any earlier, abandoned deregistration of the same session id.
	Fanout  int
	DeregID int64

	LockTs       int64 // for the leader's TryCommit fallback
	ParentLockTs int64

	// A multi()'s payload (Op == OpMulti, and on the wire only then): its
	// sub-ops, validated in order against the speculative state, and every
	// item it locked with its timed-lock timestamp, in acquisition order —
	// the locks under which the leader replays the multi-item commit for a
	// follower that died, as it does a single op's.
	Ops        []change
	ItemPaths  []string
	ItemLockTs []int64

	// traceID mirrors Request.traceID across the follower→leader hop.
	traceID int64
}

// trace is leaderMsg's Request.trace counterpart.
func (m leaderMsg) trace() int64 {
	if m.traceID != 0 {
		return m.traceID
	}
	return obs.TraceOf(m.Session, m.Seq)
}

// Response is sent to the client over its notification connection: from
// the leader on success, or directly from the follower on validation
// failure.
type Response struct {
	Session string
	Seq     int64
	Code    Code
	Path    string // created node name (create), else echo
	Stat    znode.Stat
	Txid    int64

	// MultiResults carries a multi()'s per-op outcomes (nil otherwise).
	MultiResults []txn.Result
}

// wireSize estimates the response's on-wire size for the network model.
func (r Response) wireSize() int {
	n := len(r.Path) + 96
	for _, mr := range r.MultiResults {
		n += len(mr.Path) + 96
	}
	return n
}

// WatchType distinguishes the three watch registrations ZooKeeper offers.
type WatchType uint8

// Watch types.
const (
	WatchData WatchType = iota + 1
	WatchExists
	WatchChild
)

func (w WatchType) String() string {
	switch w {
	case WatchData:
		return "data"
	case WatchExists:
		return "exists"
	case WatchChild:
		return "child"
	}
	return "?"
}

// EventType describes what happened to a watched node.
type EventType uint8

// Watch event types.
const (
	EventDataChanged EventType = iota + 1
	EventCreated
	EventDeleted
	EventChildrenChanged
)

func (e EventType) String() string {
	switch e {
	case EventDataChanged:
		return "data_changed"
	case EventCreated:
		return "created"
	case EventDeleted:
		return "deleted"
	case EventChildrenChanged:
		return "children_changed"
	}
	return "?"
}

// WatchID derives the stable identifier of a watch group (path, type).
// Both the client library and the leader compute it independently, so the
// id never needs an extra storage round trip; these are the identifiers
// carried in the epoch counters (Section 3.4).
func WatchID(path string, wt WatchType) int64 {
	h := fnv.New64a()
	h.Write([]byte(path))
	h.Write([]byte{0, byte(wt)})
	return int64(h.Sum64() &^ (1 << 63))
}

// Notification is a watch event pushed to clients by the watch function.
type Notification struct {
	WatchID int64
	Event   EventType
	Path    string
	Txid    int64
}

func (n Notification) wireSize() int { return len(n.Path) + 40 }

// WatchCallback receives one-shot watch events.
type WatchCallback func(Notification)

// SessionMsg is one message on a session's connection, a tagged value: a
// Response or a Notification from the cloud, the heartbeat function's Ping,
// or the client's Pong, which echoes the Ping's nonce. The connection
// carries it by value, so a send boxes nothing.
type SessionMsg struct {
	Kind         MsgKind
	Response     Response     // MsgResponse
	Notification Notification // MsgNotification
	Nonce        int64        // MsgPing, MsgPong
}

// MsgKind says what a SessionMsg carries.
type MsgKind uint8

// Session message kinds.
const (
	MsgResponse MsgKind = iota + 1
	MsgNotification
	MsgPing
	MsgPong
)

// watchPayload is the free watch function's invocation payload: the
// notification, its sessions, the name of the fire's epoch entry, which the
// function removes once it delivered (➏), and Waits, the entries of earlier
// txids of the firing shard listed when the leader fired it, which it waits
// out before it sends.
type watchPayload struct {
	Entry    string
	WatchID  int64
	Event    EventType
	Path     string
	Txid     int64
	Sessions []string
	Waits    []string
}

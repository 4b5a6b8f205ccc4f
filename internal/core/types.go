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

	// OpMulti is a client multi() request; on the leader queue it carries a
	// single-shard transaction's resolved sub-ops (the fast path).
	OpMulti OpCode = "multi"
	// OpTxnCommit is one shard's phase-two commit message of a cross-shard
	// transaction (package txn): it orders the transaction within the
	// shard's pipeline and carries the shard's resolved sub-ops.
	OpTxnCommit OpCode = "txn_commit"

	// OpReshardFence is the live-reshard drain barrier (package shardmap):
	// the reshard coordinator pushes one fence into each source shard's
	// queue after gating the migrating prefixes; when the shard's
	// serialized leader reaches it, every earlier message — in particular
	// every committed write to a migrating path — has been fully
	// distributed, and the leader's storage ack releases the coordinator
	// to flip the map epoch. DeregID carries the fence id.
	OpReshardFence OpCode = "reshard_fence"
)

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
	CodeTxnAborted    Code = "txn_aborted" // multi() rolled back: a sibling op failed
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

// leaderMsg is the follower-to-leader message carrying a validated change
// (step ③ of Algorithm 1). The queue's sequence number becomes the
// transaction id.
type leaderMsg struct {
	Session string
	Seq     int64
	Op      OpCode
	Path    string

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

	NodeBlob []byte // marshaled znode (mzxid patched by leader)

	ParentPath string
	ChildAdd   string
	ChildDel   string

	LockTs       int64 // for the leader's TryCommit fallback
	ParentLockTs int64

	Version  int32 // node's new data version
	Cversion int32 // parent's new child version

	EphOwner string

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

// txnMsg is the transaction payload an OpMulti or OpTxnCommit leader
// message carries in its NodeBlob field. Ops are the resolved sub-ops the
// message applies; ItemPaths/LockTs (fast path only) list the locked
// system items and their timed-lock timestamps, letting the leader replay
// the multi-item commit on behalf of a crashed coordinator, exactly like
// tryCommit's per-op reconstruction — cross-shard replays are guarded by
// the intent attribute instead.
type txnMsg struct {
	ID        int64
	Ops       []txn.ResolvedOp
	ItemPaths []string
	LockTs    []int64

	// traceID is the originating multi() request's causal trace id, set at
	// construction (txnMsg has no Session/Seq of its own to re-mint it
	// from). Always set deterministically, so the encoding is identical
	// whether telemetry is on or off.
	traceID int64
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

	// MapEpoch is the shard-map epoch the answering leader observed (0 on
	// static deployments): the client library refreshes its cached routing
	// table when a response proves a newer epoch exists. Responses travel
	// as in-memory payloads with a modeled wireSize, so the field adds no
	// bytes to the golden trace.
	MapEpoch int64
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
	// The persistent kinds (ZooKeeper 3.6 addWatch) are served by the
	// watch fan-out tier only — they never touch the legacy system-store
	// watch items. Values mirror watchfanout.Kind.
	WatchPersistent
	WatchPersistentRecursive
)

func (w WatchType) String() string {
	switch w {
	case WatchData:
		return "data"
	case WatchExists:
		return "exists"
	case WatchChild:
		return "child"
	case WatchPersistent:
		return "persistent"
	case WatchPersistentRecursive:
		return "recursive"
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

// Ping is the heartbeat probe; clients answer with Pong on their session
// connection.
type Ping struct {
	Nonce int64
}

// Pong is the client's heartbeat reply.
type Pong struct {
	Session string
	Nonce   int64
}

// watchPayload is the free watch function's invocation payload.
type watchPayload struct {
	WatchID  int64
	Event    EventType
	Path     string
	Txid     int64
	Sessions []string
}

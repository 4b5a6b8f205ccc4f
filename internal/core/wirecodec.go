package core

// Wire codecs for the pipeline's message types (package wire). Queue
// latencies and billed sizes are functions of these encodings, so a format
// change here moves the golden virtual-time trace (TestWireSizesPinned
// attributes the drift). Byte-slice fields (Request.Data,
// leaderMsg.NodeBlob, resolved-op Data) decode as zero-copy views into the
// queue message body, which the receiving handler owns; everything the
// pipeline retains beyond the handler (store items, marshaled znodes) is
// copied by the storage layer.

import (
	"fmt"

	"faaskeeper/internal/txn"
	"faaskeeper/internal/wire"
	"faaskeeper/internal/znode"
)

// Format tags distinguish the message families sharing a queue.
const (
	tagRequest   byte = 0xB1
	tagLeaderMsg byte = 0xB2
	tagTxnMsg    byte = 0xB3
	tagWatch     byte = 0xB4
)

// Encode serializes the request for the session queue (exported: the
// client library encodes its own requests). The returned slice aliases e's
// pooled buffer: consume (queue.Send copies) before e.Release, or e.Detach
// to keep it.
func (r Request) Encode(e *wire.Encoder) []byte {
	e.Byte(tagRequest)
	e.String(r.Session)
	e.Varint(r.Seq)
	e.String(string(r.Op))
	e.String(r.Path)
	e.Bytes(r.Data)
	e.Varint(int64(r.Version))
	e.Byte(byte(r.Flags))
	// Trailing causal trace id (package obs), always written: re-minted
	// from (Session, Seq) when unset, so the bytes never depend on whether
	// telemetry is enabled.
	e.Varint(r.trace())
	return e.Data()
}

// DecodeRequest parses a session-queue message body.
func DecodeRequest(b []byte) (Request, error) {
	d := wire.NewDecoder(b)
	if d.Byte() != tagRequest {
		return Request{}, fmt.Errorf("%w: request tag", wire.ErrCorrupt)
	}
	r := Request{
		Session: d.String(),
		Seq:     d.Varint(),
		Op:      OpCode(d.String()),
		Path:    d.String(),
		Data:    d.Bytes(),
		Version: int32(d.Varint()),
		Flags:   znode.Flags(d.Byte()),
		traceID: d.Varint(),
	}
	return r, d.Err()
}

// encode serializes the leader message; same buffer ownership rules as
// Request.Encode.
func (m leaderMsg) encode(e *wire.Encoder) []byte {
	e.Byte(tagLeaderMsg)
	e.String(m.Session)
	e.Varint(m.Seq)
	e.String(string(m.Op))
	e.String(m.Path)
	e.Varint(int64(m.Shard))
	e.Varint(int64(m.Fanout))
	e.Varint(m.DeregID)
	e.Bytes(m.NodeBlob)
	e.String(m.ParentPath)
	e.String(m.ChildAdd)
	e.String(m.ChildDel)
	e.Varint(m.LockTs)
	e.Varint(m.ParentLockTs)
	e.Varint(int64(m.Version))
	e.Varint(int64(m.Cversion))
	e.String(m.EphOwner)
	e.Varint(m.trace()) // trailing trace id, same rule as Request
	return e.Data()
}

// decodeLeaderMsg parses a leader-queue message body.
func decodeLeaderMsg(b []byte) (leaderMsg, error) {
	d := wire.NewDecoder(b)
	if d.Byte() != tagLeaderMsg {
		return leaderMsg{}, fmt.Errorf("%w: leader msg tag", wire.ErrCorrupt)
	}
	m := leaderMsg{
		Session:      d.String(),
		Seq:          d.Varint(),
		Op:           OpCode(d.String()),
		Path:         d.String(),
		Shard:        int(d.Varint()),
		Fanout:       int(d.Varint()),
		DeregID:      d.Varint(),
		NodeBlob:     d.Bytes(),
		ParentPath:   d.String(),
		ChildAdd:     d.String(),
		ChildDel:     d.String(),
		LockTs:       d.Varint(),
		ParentLockTs: d.Varint(),
		Version:      int32(d.Varint()),
		Cversion:     int32(d.Varint()),
		EphOwner:     d.String(),
		traceID:      d.Varint(),
	}
	return m, d.Err()
}

// encode serializes the transaction payload into owned bytes (it rides
// inside a leaderMsg, outliving any scratch buffer scope).
func (m txnMsg) encode() []byte {
	e := wire.NewEncoder()
	e.Byte(tagTxnMsg)
	e.Varint(m.ID)
	txn.AppendResolvedOps(e, m.Ops)
	e.Strings(m.ItemPaths)
	e.Int64s(m.LockTs)
	e.Varint(m.traceID) // set at construction; 0 only in hand-built fixtures
	return e.Owned()
}

// decodeTxnMsg parses a transaction payload.
func decodeTxnMsg(b []byte) (txnMsg, error) {
	d := wire.NewDecoder(b)
	if d.Byte() != tagTxnMsg {
		return txnMsg{}, fmt.Errorf("%w: txn msg tag", wire.ErrCorrupt)
	}
	m := txnMsg{
		ID:        d.Varint(),
		Ops:       txn.ReadResolvedOps(&d),
		ItemPaths: d.Strings(),
		LockTs:    d.Int64s(),
		traceID:   d.Varint(),
	}
	return m, d.Err()
}

// encode serializes the watch invocation payload into bytes the callee
// may retain (faas.InvokeAsync captures its payload in a goroutine).
func (p watchPayload) encode() []byte {
	e := wire.NewEncoder()
	e.Byte(tagWatch)
	e.Varint(p.WatchID)
	e.Byte(byte(p.Event))
	e.String(p.Path)
	e.Varint(p.Txid)
	e.Strings(p.Sessions)
	return e.Owned()
}

// decodeWatchPayload parses a watch invocation payload.
func decodeWatchPayload(b []byte) (watchPayload, error) {
	d := wire.NewDecoder(b)
	if d.Byte() != tagWatch {
		return watchPayload{}, fmt.Errorf("%w: watch payload tag", wire.ErrCorrupt)
	}
	p := watchPayload{
		WatchID:  d.Varint(),
		Event:    EventType(d.Byte()),
		Path:     d.String(),
		Txid:     d.Varint(),
		Sessions: d.Strings(),
	}
	return p, d.Err()
}

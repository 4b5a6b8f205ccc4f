package core

// Wire codecs for the pipeline's message types (package wire). Queue
// latencies and billed sizes are functions of these encodings, so a format
// change here moves the golden virtual-time trace (TestWireSizesPinned
// attributes the drift). Decoding borrows: every string and byte-slice
// field (paths, sessions, owners, child names, Request.Data, every
// change's NodeBlob) is a view into the message body, which the receiving
// handler owns and nobody writes (queue.Send and Encoder.Owned hand over
// fresh bytes). A view pins the whole body, so what outlives the handler
// is copied where it is stored: marshaled znodes and blobs by the storage
// layer, new map keys by the map's owner (kv, object, cache), and the
// strings a create writes to the system store — its child name and owner
// (nodeUpdates, parentUpdates) and the session's ephemeral list
// (recordEphemeral) — by the commit that writes them.

import (
	"fmt"

	"faaskeeper/internal/wire"
	"faaskeeper/internal/znode"
)

// Format tags distinguish the message families sharing a queue.
const (
	tagRequest   byte = 0xB1
	tagLeaderMsg byte = 0xB2
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
		Op:      OpCode(d.Known(opCodes...)),
		Path:    d.String(),
		Data:    d.Bytes(),
		Version: int32(d.Varint()),
		Flags:   znode.Flags(d.Byte()),
		traceID: d.Varint(),
	}
	return r, d.Err()
}

// encode serializes the leader message; same buffer ownership rules as
// Request.Encode. A multi()'s payload follows the trailing trace id, so a
// single op's message carries none of it.
func (m leaderMsg) encode(e *wire.Encoder) []byte {
	e.Byte(tagLeaderMsg)
	e.String(m.Session)
	e.Varint(m.Seq)
	m.change.append(e)
	e.Varint(int64(m.Shard))
	e.Varint(int64(m.Fanout))
	e.Varint(m.DeregID)
	e.Varint(m.LockTs)
	e.Varint(m.ParentLockTs)
	e.Varint(m.trace()) // trailing trace id, same rule as Request
	if m.Op == OpMulti {
		e.Uvarint(uint64(len(m.Ops)))
		for i := range m.Ops {
			m.Ops[i].append(e)
		}
		e.Strings(m.ItemPaths)
		e.Int64s(m.ItemLockTs)
	}
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
		change:       readChange(&d),
		Shard:        int(d.Varint()),
		Fanout:       int(d.Varint()),
		DeregID:      d.Varint(),
		LockTs:       d.Varint(),
		ParentLockTs: d.Varint(),
		traceID:      d.Varint(),
	}
	if m.Op == OpMulti {
		if n := d.Count(); n > 0 {
			m.Ops = make([]change, 0, n)
			for i := 0; i < n; i++ {
				m.Ops = append(m.Ops, readChange(&d))
			}
		}
		m.ItemPaths = d.Strings()
		m.ItemLockTs = d.Int64s()
	}
	return m, d.Err()
}

// append writes one validated change in the binary format: the node image
// a follower built is marshaled straight into the message as NodeBlob.
func (c change) append(e *wire.Encoder) {
	e.String(string(c.Op))
	e.String(c.Path)
	e.String(c.ParentPath)
	if c.image.Path != "" {
		e.Nested(func(b []byte) []byte { return znode.AppendMarshal(b, &c.image, nil) })
	} else {
		e.Bytes(c.NodeBlob)
	}
	e.Varint(int64(c.Version))
	e.Varint(int64(c.Cversion))
	e.String(c.EphOwner)
	e.String(c.ChildAdd)
	e.String(c.ChildDel)
}

// readChange decodes one change; NodeBlob is a zero-copy view.
func readChange(d *wire.Decoder) change {
	return change{
		Op:         OpCode(d.Known(opCodes...)),
		Path:       d.String(),
		ParentPath: d.String(),
		NodeBlob:   d.Bytes(),
		Version:    int32(d.Varint()),
		Cversion:   int32(d.Varint()),
		EphOwner:   d.String(),
		ChildAdd:   d.String(),
		ChildDel:   d.String(),
	}
}

// encode serializes the watch invocation payload into bytes the callee
// retains (the invocation runs after faas.InvokeAsync returns), at their
// exact size: one allocation.
func (p watchPayload) encode() []byte {
	e := wire.Sized(2 + wire.VarintLen(p.WatchID) + wire.StringLen(p.Path) + wire.VarintLen(p.Txid) + wire.StringsLen(p.Sessions))
	e.Byte(tagWatch)
	e.Varint(p.WatchID)
	e.Byte(byte(p.Event))
	e.String(p.Path)
	e.Varint(p.Txid)
	e.Strings(p.Sessions)
	return e.Data()
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

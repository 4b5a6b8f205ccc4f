package watchfanout

// Wire records for the fan-out tier (package wire). In the simulator they
// travel as in-memory values and only their size feeds the latency model;
// the sizes below are the exact encoded lengths, computed arithmetically so
// the hot path never encodes. Encode/Decode realize the format for tests,
// fuzzing, and any future off-box transport.

import (
	"fmt"

	"faaskeeper/internal/wire"
)

const (
	tagNotification byte = 0xE7
	tagRegistration byte = 0xE8
)

// NotificationRecord is the leader's one-per-(path, txid) publication to
// a regional fan-out node.
type NotificationRecord struct {
	Path   string
	Parent string
	Op     byte
	Txid   int64
	Shard  int64
}

// RegistrationRecord is a session's durable watch registration as stored
// on the node (and in the per-session watch set).
type RegistrationRecord struct {
	Session    string
	Path       string
	Kind       byte
	Policy     byte
	IntervalUS int64 // PolicyInterval window in virtual-time units
	WID        int64
}

// notifSize is len(EncodeNotification(r)), computed without encoding.
func notifSize(r NotificationRecord) int {
	return 1 + wire.UvarintLen(uint64(len(r.Path))) + len(r.Path) +
		wire.UvarintLen(uint64(len(r.Parent))) + len(r.Parent) +
		1 +
		wire.VarintLen(r.Txid) +
		wire.VarintLen(r.Shard)
}

// regSize is len(EncodeRegistration(r)), computed without encoding.
func regSize(r RegistrationRecord) int {
	return 1 + wire.UvarintLen(uint64(len(r.Session))) + len(r.Session) +
		wire.UvarintLen(uint64(len(r.Path))) + len(r.Path) +
		2 +
		wire.VarintLen(r.IntervalUS) +
		wire.VarintLen(r.WID)
}

// EncodeNotification serializes one record in the binary wire format.
func EncodeNotification(r NotificationRecord) []byte {
	e := wire.NewEncoder()
	e.Byte(tagNotification)
	e.String(r.Path)
	e.String(r.Parent)
	e.Byte(r.Op)
	e.Varint(r.Txid)
	e.Varint(r.Shard)
	return e.Owned()
}

// DecodeNotification parses a record produced by EncodeNotification.
func DecodeNotification(b []byte) (NotificationRecord, error) {
	d := wire.NewDecoder(b)
	if d.Byte() != tagNotification {
		return NotificationRecord{}, fmt.Errorf("%w: notification tag", wire.ErrCorrupt)
	}
	r := NotificationRecord{
		Path:   d.String(),
		Parent: d.String(),
		Op:     d.Byte(),
		Txid:   d.Varint(),
		Shard:  d.Varint(),
	}
	return r, d.Err()
}

// EncodeRegistration serializes one record in the binary wire format.
func EncodeRegistration(r RegistrationRecord) []byte {
	e := wire.NewEncoder()
	e.Byte(tagRegistration)
	e.String(r.Session)
	e.String(r.Path)
	e.Byte(r.Kind)
	e.Byte(r.Policy)
	e.Varint(r.IntervalUS)
	e.Varint(r.WID)
	return e.Owned()
}

// DecodeRegistration parses a record produced by EncodeRegistration.
func DecodeRegistration(b []byte) (RegistrationRecord, error) {
	d := wire.NewDecoder(b)
	if d.Byte() != tagRegistration {
		return RegistrationRecord{}, fmt.Errorf("%w: registration tag", wire.ErrCorrupt)
	}
	r := RegistrationRecord{
		Session:    d.String(),
		Path:       d.String(),
		Kind:       d.Byte(),
		Policy:     d.Byte(),
		IntervalUS: d.Varint(),
		WID:        d.Varint(),
	}
	return r, d.Err()
}

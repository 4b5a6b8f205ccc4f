package znode

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
	"unsafe"
)

// Flags control node creation, mirroring ZooKeeper's CreateMode.
type Flags uint8

// Node creation flags.
const (
	FlagEphemeral Flags = 1 << iota
	FlagSequential
)

// MaxDataBytes is ZooKeeper's 1 MB node-size ceiling; FaaSKeeper enforces
// tighter provider-specific limits on top (Section 4.4).
const MaxDataBytes = 1024 * 1024

// Stat is the node metadata exposed to clients, following ZooKeeper.
type Stat struct {
	Czxid       int64  // transaction id that created the node
	Mzxid       int64  // transaction id of the last modification
	Pzxid       int64  // transaction id of the last child change
	Version     int32  // number of data changes
	Cversion    int32  // number of child changes
	Ephemeral   bool   // owned by a session
	Owner       string // owning session id for ephemeral nodes
	DataLength  int32
	NumChildren int32
}

// Node is one tree node with data, metadata, and its children names.
type Node struct {
	Path     string
	Data     []byte
	Stat     Stat
	Children []string
	// Pzxids are the child stamps of a node whose child list several
	// write shards change — the root of a sharded FaaSKeeper deployment:
	// one pzxid per shard, each the txid of that shard's last child change
	// (txids of two shards do not order, so no one number can say which
	// of them the list holds). Stat.Pzxid is their maximum. Nil on every
	// other node, whose Stat.Pzxid is its one stamp.
	Pzxids []int64
}

// Clone deep-copies the node.
func (n *Node) Clone() *Node {
	out := *n
	out.Data = append([]byte(nil), n.Data...)
	out.Children = append([]string(nil), n.Children...)
	out.Pzxids = append([]int64(nil), n.Pzxids...)
	return &out
}

// SortedChildren returns the children in lexicographic order, the order
// get_children reports.
func (n *Node) SortedChildren() []string {
	out := append([]string(nil), n.Children...)
	sort.Strings(out)
	return out
}

// codec constants.
const (
	codecVersion = 1
)

// ErrCorrupt is returned when decoding malformed node bytes.
var ErrCorrupt = errors.New("znode: corrupt encoding")

// Marshal encodes the node (and the epoch stamp FaaSKeeper attaches for
// watch ordering) into a compact binary blob for object storage. The
// per-shard child stamps (Pzxids) follow the epoch stamp, only where the
// node has them: every other node's blob ends with the stamp.
func Marshal(n *Node, epoch []int64) []byte {
	size := 1 + 10*binary.MaxVarintLen64 +
		len(n.Path) + len(n.Data) + len(n.Owner()) +
		binary.MaxVarintLen64*(2+len(epoch)+len(n.Children))
	if len(n.Pzxids) > 0 {
		size += binary.MaxVarintLen64 * (1 + len(n.Pzxids))
	}
	for _, c := range n.Children {
		size += len(c)
	}
	return AppendMarshal(make([]byte, 0, size), n, epoch)
}

// AppendMarshal appends Marshal's encoding of the node to buf, for a caller
// that writes the blob straight into a larger buffer (a message).
func AppendMarshal(buf []byte, n *Node, epoch []int64) []byte {
	buf = append(buf, codecVersion)
	buf = appendString(buf, n.Path)
	buf = binary.AppendVarint(buf, n.Stat.Czxid)
	buf = binary.AppendVarint(buf, n.Stat.Mzxid)
	buf = binary.AppendVarint(buf, n.Stat.Pzxid)
	buf = binary.AppendVarint(buf, int64(n.Stat.Version))
	buf = binary.AppendVarint(buf, int64(n.Stat.Cversion))
	if n.Stat.Ephemeral {
		buf = append(buf, 1)
	} else {
		buf = append(buf, 0)
	}
	buf = appendString(buf, n.Stat.Owner)
	buf = appendBytes(buf, n.Data)
	buf = binary.AppendUvarint(buf, uint64(len(n.Children)))
	for _, c := range n.Children {
		buf = appendString(buf, c)
	}
	buf = appendInts(buf, epoch)
	if len(n.Pzxids) > 0 {
		buf = appendInts(buf, n.Pzxids)
	}
	return buf
}

// Unmarshal decodes a blob produced by Marshal, returning the node and the
// attached epoch stamp. The node's strings (Path, Stat.Owner, every child
// name) borrow: they are views into buf, so buf must never be written
// afterwards (stored objects, kv blobs and cache entries are replaced,
// never edited). Data is a copy, the one field callers may mutate. Code
// that keeps a string beyond buf's owner clones it where it keeps it.
func Unmarshal(buf []byte) (*Node, []int64, error) {
	n := &Node{}
	epoch, err := unmarshal(buf, n, false)
	if err != nil {
		return nil, nil, err
	}
	return n, epoch, nil
}

// UnmarshalView is Unmarshal into a node the caller provides, with the
// node's Data a view into buf as well: for a caller that owns buf, never
// writes into it and hands the node only to code that copies the data it
// keeps (Marshal does). Every field of n is overwritten; on an error n
// holds a partial decode.
func UnmarshalView(buf []byte, n *Node) ([]int64, error) { return unmarshal(buf, n, true) }

func unmarshal(buf []byte, n *Node, view bool) ([]int64, error) {
	if len(buf) == 0 || buf[0] != codecVersion {
		return nil, fmt.Errorf("%w: bad version", ErrCorrupt)
	}
	r := reader{buf: buf[1:]}
	*n = Node{}
	n.Path = r.str()
	n.Stat.Czxid = r.varint()
	n.Stat.Mzxid = r.varint()
	n.Stat.Pzxid = r.varint()
	n.Stat.Version = int32(r.varint())
	n.Stat.Cversion = int32(r.varint())
	n.Stat.Ephemeral = r.byte() == 1
	n.Stat.Owner = r.str()
	if n.Data = r.view(); !view {
		n.Data = bytes.Clone(n.Data)
	}
	nc := int(r.uvarint())
	if r.err == nil && nc >= 0 && nc <= 1<<20 {
		n.Children = make([]string, 0, nc)
		for i := 0; i < nc; i++ {
			n.Children = append(n.Children, r.str())
		}
	} else if nc > 1<<20 {
		return nil, fmt.Errorf("%w: children count", ErrCorrupt)
	}
	epoch := r.ints()
	if r.err == nil && len(r.buf) > 0 {
		n.Pzxids = r.ints()
	}
	if r.err != nil {
		return nil, r.err
	}
	n.Stat.DataLength = int32(len(n.Data))
	n.Stat.NumChildren = int32(len(n.Children))
	return epoch, nil
}

// Fresh is the newest transaction reflected in the node's user-store
// object: its mzxid, raised to its pzxid — child-list rebuilds replace the
// object without touching the node's own mzxid. It is the value a cached
// copy of the object carries.
func (n *Node) Fresh() int64 {
	if n.Stat.Pzxid > n.Stat.Mzxid {
		return n.Stat.Pzxid
	}
	return n.Stat.Mzxid
}

// Owner is a nil-safe accessor used by Marshal size estimation.
func (n *Node) Owner() string { return n.Stat.Owner }

func appendString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

// appendInts appends a counted list of varints.
func appendInts(buf []byte, vs []int64) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(vs)))
	for _, v := range vs {
		buf = binary.AppendVarint(buf, v)
	}
	return buf
}

func appendBytes(buf, b []byte) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(b)))
	return append(buf, b...)
}

type reader struct {
	buf []byte
	err error
}

func (r *reader) fail() {
	if r.err == nil {
		r.err = ErrCorrupt
	}
}

func (r *reader) byte() byte {
	if r.err != nil || len(r.buf) < 1 {
		r.fail()
		return 0
	}
	b := r.buf[0]
	r.buf = r.buf[1:]
	return b
}

func (r *reader) varint() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.buf)
	if n <= 0 {
		r.fail()
		return 0
	}
	r.buf = r.buf[n:]
	return v
}

func (r *reader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.buf)
	if n <= 0 {
		r.fail()
		return 0
	}
	r.buf = r.buf[n:]
	return v
}

// ints reads a counted list of varints (appendInts), never nil on success.
func (r *reader) ints() []int64 {
	n := r.uvarint()
	if r.err != nil || n > 1<<20 {
		r.fail()
		return nil
	}
	vs := make([]int64, 0, n)
	for i := uint64(0); i < n; i++ {
		vs = append(vs, r.varint())
	}
	return vs
}

// str reads a length-prefixed string as a view into the input, without
// copying it.
func (r *reader) str() string {
	b := r.view()
	return unsafe.String(unsafe.SliceData(b), len(b))
}

// view reads a length-prefixed byte slice as a sub-slice of the input, nil
// when it is empty.
func (r *reader) view() []byte {
	ln := r.uvarint()
	if r.err != nil {
		return nil
	}
	if uint64(len(r.buf)) < ln {
		r.fail()
		return nil
	}
	if ln == 0 {
		return nil
	}
	b := r.buf[:ln]
	r.buf = r.buf[ln:]
	return b
}

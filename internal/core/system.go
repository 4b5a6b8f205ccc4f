package core

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
	"unsafe"

	"faaskeeper/internal/cloud"
	"faaskeeper/internal/cloud/kv"
	"faaskeeper/internal/fksync"
	"faaskeeper/internal/znode"
)

// System-store key prefixes and attribute names. One DynamoDB-like table
// holds three kinds of items (Section 3.3): per-node control records (lock
// timestamp, committed metadata, pending transactions, watch
// registrations), session records, and the region epoch counters. A node's
// control record is keyed by the node's path; every other key is
// "<kind>:<id>" or a fixed word, so none starts with "/" and the two
// namespaces cannot meet.
const (
	sessionKeyPrefix = "session:"
	epochKeyPrefix   = "epoch:"
	deregKeyPrefix   = "dereg:"

	// rootUpdateLockKey is the timed-lock item serializing cross-shard
	// read-modify-write cycles on the root node's user-store object.
	rootUpdateLockKey = "rootupdate"

	// attrDeregAcks accumulates "<deregID>/<shard>" markers on the
	// deregistration barrier item; deregSeqKey holds the system-store
	// counter minting the ids (followers are stateless, so the id must
	// survive restarts to keep abandoned-fanout markers distinguishable).
	attrDeregAcks = "acks"
	deregSeqKey   = "deregseq"
	attrDeregSeq  = "n"

	attrExists   = "exists"
	attrVersion  = "version"
	attrCversion = "cversion"
	attrCzxid    = "czxid"
	attrMzxid    = "mzxid"
	attrPzxid    = "pzxid"
	attrChildren = "children"
	attrEph      = "eph"
	attrSeq      = "seq"
	attrPending  = "pending"

	attrSessionEph  = "eph"
	attrSessionReg  = "reg"
	attrSessionAddr = "addr"

	attrWatchData   = "w_data"
	attrWatchExists = "w_exists"
	attrWatchChild  = "w_child"
)

// watchAttrs names each watch type's session list on a control record,
// indexed by WatchType-1: its live group, the registrations no commit has
// moved yet.
var watchAttrs = [...]string{attrWatchData, attrWatchExists, attrWatchChild}

// fireRecords names the fire records of the commit at txid, indexed by
// WatchType-1: "f<txid>.<type>". A commit at txid t moves every live group
// its changes fire (the write-op table's fires column) into the record's
// fire record of that type, in the same conditional write, so the
// registrations that landed before the commit, and no later one, are the
// ones t fires. The leader's commit check reads the fire records with the
// commit, the pop of t removes them, and a parent's child fire record,
// which no pop of t reaches, is removed by t's claim round. The names are
// views of buf: the table only reads a name it is handed, and copies one it
// keeps (kv.Item.add).
func fireRecords(buf *fireBuf, txid int64) (names [len(watchAttrs)]string) {
	b := buf[:0]
	for i := range names {
		n := len(b)
		b = strconv.AppendInt(append(b, 'f'), txid, 10)
		b = append(append(b, '.'), fireTypes[i]...)
		names[i] = unsafe.String(&b[n], len(b)-n)
	}
	return names
}

// parseFire reads a fire record's name: the txid of the commit that left it
// and its watch type. No other attribute of a record starts with "f".
func parseFire(name string) (txid int64, wt WatchType, ok bool) {
	t, typ, _ := strings.Cut(name, ".")
	if wt = WatchType(slices.Index(fireTypes, typ) + 1); wt == 0 || !strings.HasPrefix(t, "f") {
		return 0, 0, false
	}
	txid, err := strconv.ParseInt(t[1:], 10, 64)
	return txid, wt, err == nil
}

// fireTypes spells each watch type in a fire record's name.
var fireTypes = []string{WatchData.String(), WatchExists.String(), WatchChild.String()}

// fireBuf holds a commit's fire record names: "f", a txid and a type, at
// most 32 bytes each.
type fireBuf [3 * 32]byte

func sessionKey(id string) string { return sessionKeyPrefix + id }
func deregKey(id string) string   { return deregKeyPrefix + id }

// epochKey names a region's watch epoch item. It holds one attribute per
// watch group fired and not yet delivered — the group's epoch entry
// (appendEntryName) — whose value is the group's watch id. The leader that
// fires the group sets it, with an unconditional update, and the watch
// function that delivers it removes it (watchHandler): each writes and
// removes its own attribute whole, so no entry is ever cleared by another
// fire's exit, and shards never contend. One strongly consistent read of
// the item is an atomic snapshot of the region's in-flight ids over every
// shard (epochUnion). A region's key is built on first use and kept: every
// leader invocation reads it.
func (d *Deployment) epochKey(r cloud.Region) string {
	key, ok := d.epochKeys[r]
	if !ok {
		key = epochKeyPrefix + string(r)
		d.epochKeys[r] = key
	}
	return key
}

// appendEntryName appends the epoch entry name of the g-th group txid
// fired, after the firing shard's prefix (entryPrefix): "w<shard>.<txid>.<g>".
// Txids are unique, so the name is unique to one fire.
func appendEntryName(b []byte, prefix string, txid int64, g int) []byte {
	b = strconv.AppendInt(append(b, prefix...), txid, 10)
	return strconv.AppendInt(append(b, '.'), int64(g), 10)
}

// entryPrefix starts the name of every epoch entry shard s fires.
func entryPrefix(s int) string { return "w" + strconv.Itoa(s) + "." }

// shardAttr names shard s's attribute of a kind every shard keeps its own
// of on one item: shard 0's is base, so a one-shard item is the paper's.
func shardAttr(base string, s int) string {
	if s == 0 {
		return base
	}
	return base + strconv.Itoa(s)
}

// childStamps returns the child stamps on the shared root's control record
// it: each shard's pzxid (pzxidAttrs), the txid of its last child
// change. Txids of two shards do not order, so a last-writer-wins pzxid
// cannot say which shards' changes the child list holds; one stamp per
// shard can, and the root's user-store object carries the same vector
// (znode.Node.Pzxids). Each shard sets only its own (commitPlan).
func (d *Deployment) childStamps(it kv.Item) []int64 {
	stamps := make([]int64, len(d.pzxidAttrs))
	for s, attr := range d.pzxidAttrs {
		stamps[s] = it.Get(attr).Num()
	}
	return stamps
}

// epochUnion appends to stamp the (watch id, txid) pair of every entry on
// an epoch item, over every shard, in the order the item lists them: the
// txid is the one the entry's name carries (appendEntryName).
func epochUnion(stamp []int64, it kv.Item) []int64 {
	for i := range it {
		_, rest, _ := strings.Cut(it[i].Name, ".")
		txid, _ := strconv.ParseInt(rest[:strings.IndexByte(rest, '.')], 10, 64)
		stamp = append(stamp, it[i].V.Num(), txid)
	}
	return stamp
}

// sysNode is the decoded view of a per-node system item.
type sysNode struct {
	Exists   bool
	Version  int32
	Cversion int32
	Czxid    int64
	Mzxid    int64
	Pzxid    int64
	Children []string
	EphOwner string
	SeqCtr   int64
	Pending  []int64
	// Fired holds, per watch type (index WatchType-1), the fire record the
	// commit at the txid the record was decoded for left (fireRecords): its
	// name, and the sessions it fires. A view of the item's attribute.
	Fired [len(watchAttrs)]kv.Attr
}

// decodeSysNode decodes a control record, with the fire records the commit
// at txid left on it (none for txid 0).
func decodeSysNode(it kv.Item, txid int64) sysNode {
	if it == nil {
		return sysNode{}
	}
	n := sysNode{
		Exists:   it.Get(attrExists).Num() == 1,
		Version:  int32(it.Get(attrVersion).Num()),
		Cversion: int32(it.Get(attrCversion).Num()),
		Czxid:    it.Get(attrCzxid).Num(),
		Mzxid:    it.Get(attrMzxid).Num(),
		Pzxid:    newestPzxid(it),
		// Children, Pending and Fired are views of values in table
		// storage, which stay valid and unchanged forever, while the item
		// itself is valid only until its reader blocks: every caller
		// decodes it first. plan.validate copies the child list before it
		// splices.
		Children: it.Get(attrChildren).SL(),
		EphOwner: it.Get(attrEph).Str(),
		SeqCtr:   it.Get(attrSeq).Num(),
		Pending:  it.Get(attrPending).NL(),
	}
	for i := range it {
		if t, wt, ok := parseFire(it[i].Name); ok && t == txid {
			n.Fired[wt-1] = it[i]
		}
	}
	return n
}

// newestPzxid is a record's newest child stamp: the shared root's keeps one
// per shard (childStamps), every other record one.
func newestPzxid(it kv.Item) (pzxid int64) {
	for i := range it {
		if strings.HasPrefix(it[i].Name, attrPzxid) {
			pzxid = max(pzxid, it[i].V.Num())
		}
	}
	return pzxid
}

// hasChild reports whether the child name is present.
func (s sysNode) hasChild(name string) bool {
	for _, c := range s.Children {
		if c == name {
			return true
		}
	}
	return false
}

// toZNode builds the client-visible node from system metadata plus data,
// its child list a view of s's: the node is for Marshal, which only reads.
func (s sysNode) toZNode(path string, data []byte) znode.Node {
	return znode.Node{
		Path: path,
		Data: data,
		Stat: znode.Stat{
			Czxid:       s.Czxid,
			Mzxid:       s.Mzxid,
			Pzxid:       s.Pzxid,
			Version:     s.Version,
			Cversion:    s.Cversion,
			Ephemeral:   s.EphOwner != "",
			Owner:       s.EphOwner,
			DataLength:  int32(len(data)),
			NumChildren: int32(len(s.Children)),
		},
		Children: s.Children,
	}
}

// AtRest audits a quiescent deployment — every write flushed, no delivery
// in flight — against the system store, the authority the user stores
// replicate (Z3). One strongly consistent scan; for every node record (a
// key that starts with "/") and every region's store:
//   - the record says the node exists exactly when its object is readable;
//   - version, cversion, czxid, mzxid, pzxid (and the shared root's
//     per-shard child stamps) and the child set are equal;
//   - every pending txid is flushed: the object is at or past it;
//   - every child the record lists has a record that says it exists;
//   - the object is stored under its own path;
//   - every fire record is one a pop still has to remove: its txid is
//     pending on the record (a parent's child fire record never is: its
//     claim removes it);
//   - no lock is live: a lock younger than the lease is a write still in
//     flight, or one whose retry never came;
//
// and every epoch item lists no entry: each delivery removed its own. It
// returns one line per disagreement, in key order.
func (d *Deployment) AtRest(ctx cloud.Ctx) []string {
	var out []string
	scan := d.System.Scan(ctx)
	exists := map[string]bool{}
	for _, ki := range scan {
		exists[ki.Key] = ki.Item.Get(attrExists).Num() == 1
	}
	for _, ki := range scan {
		if strings.HasPrefix(ki.Key, epochKeyPrefix) && len(ki.Item) > 0 {
			out = append(out, fmt.Sprintf("%s: epoch entries %v still listed", ki.Key, ki.Item))
		}
		if !strings.HasPrefix(ki.Key, znode.Root) {
			continue
		}
		path, rec := ki.Key, decodeSysNode(ki.Item, 0)
		if ts, ok := ki.Item.Lookup(fksync.LockAttr); ok && int64(d.K.Now())-ts.Num() < int64(lockLease) {
			out = append(out, fmt.Sprintf("%s: lock taken at %d is live at rest (lease %v)", path, ts.Num(), lockLease))
		}
		for _, a := range ki.Item {
			if t, _, ok := parseFire(a.Name); ok && !slices.Contains(rec.Pending, t) {
				out = append(out, fmt.Sprintf("%s: fire record %s %v, txid %d not pending", path, a.Name, a.V, t))
			}
		}
		var stamps []int64
		if d.route.Shared(path) {
			stamps = d.childStamps(ki.Item)
		}
		for _, kid := range rec.Children {
			if !exists[znode.Join(path, kid)] {
				out = append(out, fmt.Sprintf("%s: record lists child %s, whose record is missing or says exists=0", path, kid))
			}
		}
		for _, s := range d.Stores {
			n, _, err := s.Read(ctx, path)
			if rec.Exists != (err == nil) {
				out = append(out, fmt.Sprintf("%s in %s: record exists=%v, object read error %v", path, s.Region(), rec.Exists, err))
			}
			if err != nil {
				continue
			}
			if n.Path != path {
				out = append(out, fmt.Sprintf("%s in %s: object stored under path %s", path, s.Region(), n.Path))
			}
			st := n.Stat
			if st.Version != rec.Version || st.Cversion != rec.Cversion || st.Czxid != rec.Czxid ||
				st.Mzxid != rec.Mzxid || st.Pzxid != rec.Pzxid || !slices.Equal(n.Pzxids, stamps) {
				out = append(out, fmt.Sprintf("%s in %s: object version %d cversion %d czxid %d mzxid %d pzxid %d %v, record %d %d %d %d %d %v",
					path, s.Region(), st.Version, st.Cversion, st.Czxid, st.Mzxid, st.Pzxid, n.Pzxids,
					rec.Version, rec.Cversion, rec.Czxid, rec.Mzxid, rec.Pzxid, stamps))
			}
			kids := slices.Clone(rec.Children)
			slices.Sort(kids)
			if got := n.SortedChildren(); !slices.Equal(got, kids) {
				out = append(out, fmt.Sprintf("%s in %s: object children %v, record %v", path, s.Region(), got, kids))
			}
			for _, t := range rec.Pending {
				if t > st.Mzxid {
					out = append(out, fmt.Sprintf("%s in %s: pending txid %d not flushed (object mzxid %d)", path, s.Region(), t, st.Mzxid))
				}
			}
		}
	}
	return out
}

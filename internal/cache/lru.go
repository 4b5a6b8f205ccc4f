// Package cache implements FaaSKeeper's read-path cache tier: a shared
// regional cache node (a Redis-like VM fronting the user store, as in the
// paper's FK/Redis ablation) plus a byte-accounted LRU reusable as the
// per-session client cache. Entries carry the node's marshaled blob — which
// embeds the epoch stamp the leader attached at write time — and its mzxid,
// so the client library can apply the exact Z3/Z4 guards the direct read
// path uses before serving a cached copy. The leader keeps the regional
// node current: it publishes per-path invalidation records (path, new
// mzxid, epoch union) before every user-store write and installs the
// objects it wrote after the write, and the cache keeps a per-path mzxid
// floor so a stale fill racing an invalidation can never resurrect
// overwritten data.
package cache

import (
	"container/list"

	"faaskeeper/internal/sim"
)

// entryOverheadB approximates the per-entry bookkeeping bytes (list node,
// map slot, stamps) charged against the byte capacity on top of the blob.
const entryOverheadB = 64

// Entry is one cached node version.
type Entry struct {
	// Blob is the marshaled znode including the epoch stamp attached by
	// the leader at write time (znode.Marshal output).
	Blob []byte
	// Mzxid is the newest transaction reflected in the blob: the node's
	// modification txid, raised to its Pzxid for parent objects — a
	// child-list rebuild changes the stored object without touching the
	// node's own mzxid. Duplicated outside the blob so guard checks and
	// floor comparisons never need to unmarshal.
	Mzxid int64
	// FilledAt is the virtual time the entry was cached; client caches
	// use it to bound staleness (ZooKeeper's timeliness guarantee).
	FilledAt sim.Time
}

type lruItem struct {
	key   string
	entry Entry
	size  int
}

// LRU is a least-recently-used cache with byte-capacity accounting. It is
// not safe for OS-level concurrency, which is fine: all simulated processes
// are serialized by the sim kernel.
type LRU struct {
	capB      int
	bytes     int
	ll        *list.List // front = most recently used
	idx       map[string]*list.Element
	evictions int64
}

// NewLRU builds a cache holding at most capB bytes of entries.
func NewLRU(capB int) *LRU {
	if capB <= 0 {
		capB = 1 << 20
	}
	return &LRU{capB: capB, ll: list.New(), idx: map[string]*list.Element{}}
}

func entrySize(key string, e Entry) int {
	return len(e.Blob) + len(key) + entryOverheadB
}

// Get returns the entry for key and marks it most recently used.
func (l *LRU) Get(key string) (Entry, bool) {
	el, ok := l.idx[key]
	if !ok {
		return Entry{}, false
	}
	l.ll.MoveToFront(el)
	return el.Value.(*lruItem).entry, true
}

// Peek returns the entry without touching recency (tests and stats).
func (l *LRU) Peek(key string) (Entry, bool) {
	el, ok := l.idx[key]
	if !ok {
		return Entry{}, false
	}
	return el.Value.(*lruItem).entry, true
}

// Put inserts or replaces the entry for key, evicting least-recently-used
// entries until the byte capacity holds. An entry larger than the whole
// capacity is not cached at all.
func (l *LRU) Put(key string, e Entry) {
	size := entrySize(key, e)
	if size > l.capB {
		l.Remove(key)
		return
	}
	if el, ok := l.idx[key]; ok {
		it := el.Value.(*lruItem)
		l.bytes += size - it.size
		it.entry, it.size = e, size
		l.ll.MoveToFront(el)
	} else {
		l.idx[key] = l.ll.PushFront(&lruItem{key: key, entry: e, size: size})
		l.bytes += size
	}
	for l.bytes > l.capB {
		l.evictOldest()
	}
}

// Remove drops the entry for key, reporting whether it was present.
func (l *LRU) Remove(key string) bool {
	el, ok := l.idx[key]
	if !ok {
		return false
	}
	l.drop(el)
	return true
}

func (l *LRU) evictOldest() {
	el := l.ll.Back()
	if el == nil {
		return
	}
	l.drop(el)
	l.evictions++
}

func (l *LRU) drop(el *list.Element) {
	it := el.Value.(*lruItem)
	l.ll.Remove(el)
	delete(l.idx, it.key)
	l.bytes -= it.size
}

// Len returns the number of cached entries.
func (l *LRU) Len() int { return l.ll.Len() }

// Bytes returns the accounted size of all cached entries.
func (l *LRU) Bytes() int { return l.bytes }

// CapacityB returns the configured byte capacity.
func (l *LRU) CapacityB() int { return l.capB }

// Evictions returns how many entries capacity pressure has pushed out.
func (l *LRU) Evictions() int64 { return l.evictions }

// Keys returns the cached keys from most to least recently used (tests).
func (l *LRU) Keys() []string {
	keys := make([]string, 0, l.ll.Len())
	for el := l.ll.Front(); el != nil; el = el.Next() {
		keys = append(keys, el.Value.(*lruItem).key)
	}
	return keys
}

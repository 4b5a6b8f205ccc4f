// Package shardmap is the write route of a sharded FaaSKeeper deployment:
// which of the deployment's n leader queues owns a znode path. A path is
// routed by the FNV hash of its top-level segment modulo n, so a parent
// and all of its descendants share a shard, and only the tree root is
// written by more than one shard leader. The route is fixed when the
// deployment is built; changing n means redeploying.
package shardmap

import (
	"hash/fnv"
	"strings"
)

// Map is the route of a deployment with a fixed number of write shards.
// It is immutable.
type Map struct {
	n int
}

// New returns the route over n write shards (at least one).
func New(n int) *Map {
	if n <= 0 {
		n = 1
	}
	return &Map{n: n}
}

// DefaultShard is the route itself: the FNV hash of the path's top-level
// segment modulo n, the root (and anything without a segment) on shard 0.
func DefaultShard(path string, n int) int {
	if n <= 1 || len(path) < 2 || path[0] != '/' {
		return 0
	}
	seg := path[1:]
	if i := strings.IndexByte(seg, '/'); i >= 0 {
		seg = seg[:i]
	}
	if seg == "" {
		return 0
	}
	h := fnv.New32a()
	h.Write([]byte(seg))
	return int(h.Sum32() % uint32(n))
}

// ShardFor returns the shard owning a path's writes.
func (m *Map) ShardFor(path string) int { return DefaultShard(path, m.n) }

// Shared reports whether a path's user-store object is rebuilt by more
// than one shard leader: the tree root of a multi-shard deployment. Shared
// paths are serialized under a cross-shard lock and read past the cache
// tier.
func (m *Map) Shared(path string) bool { return m.n > 1 && path == "/" }

package shardmap_test

import (
	"fmt"
	"testing"

	"faaskeeper/internal/core"
	"faaskeeper/internal/shardmap"
)

// TestShardForMatchesShardOf pins the route a deployment builds to the one
// core.ShardOf computes (and the benchmark's shardmap probe times): for
// every shard count, every path lands on the same shard, the root on shard
// 0, and only the root of a multi-shard deployment is shared.
func TestShardForMatchesShardOf(t *testing.T) {
	for _, n := range []int{1, 2, 4, 8} {
		m := shardmap.New(n)
		for i := 0; i < 3000; i++ {
			p := fmt.Sprintf("/seg%d", i)
			if i%3 == 1 {
				p += fmt.Sprintf("/child%d", i)
			} else if i%3 == 2 {
				p += fmt.Sprintf("/c/leaf-%d", i)
			}
			if got, want := m.ShardFor(p), core.ShardOf(p, n); got != want {
				t.Fatalf("n=%d: ShardFor(%q) = %d, core.ShardOf %d", n, p, got, want)
			}
			if m.Shared(p) {
				t.Fatalf("n=%d: %q reported shared", n, p)
			}
		}
		if m.ShardFor("/") != 0 {
			t.Fatalf("n=%d: root must route to shard 0", n)
		}
		if got, want := m.Shared("/"), n > 1; got != want {
			t.Fatalf("n=%d: Shared(/) = %v, want %v", n, got, want)
		}
	}
}

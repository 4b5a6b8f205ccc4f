package main

import (
	"fmt"

	"faaskeeper/internal/shardmap"
)

func init() { registerProbe("shardmap", probeShardmap) }

// probeShardmap times the routing decision every write makes on a dynamic
// deployment, over the scaled preset's four shards.
func probeShardmap(scale float64) []metric {
	m := shardmap.New(4)
	paths := make([]string, 1024)
	for i := range paths {
		paths[i] = fmt.Sprintf("/n%04d", i)
	}
	sum := 0
	c := loop(nil, 5000000, scale, func(i int) { sum += m.ShardFor(paths[i%len(paths)]) })
	if sum < 0 {
		panic("bench: shard ids are not negative")
	}
	return []metric{{"shardmap.shardfor_ns", c.ns, "ns"}}
}

package main

import "faaskeeper/internal/znode"

func init() { registerProbe("znode", probeZnode) }

// probeZnode times the node codec on the shape every workload stores: a
// 1 KB leaf with a short epoch stamp.
func probeZnode(scale float64) []metric {
	n := &znode.Node{
		Path: "/n0001",
		Data: make([]byte, 1024),
		Stat: znode.Stat{Czxid: 10, Mzxid: 99, Version: 3},
	}
	epoch := []int64{1, 2, 3}
	blob := znode.Marshal(n, epoch)
	marshal := loop(nil, 1000000, scale, func(int) { blob = znode.Marshal(n, epoch) })
	unmarshal := loop(nil, 1000000, scale, func(int) {
		_, _, err := znode.Unmarshal(blob)
		must(err)
	})
	return []metric{
		{"znode.marshal_ns", marshal.ns, "ns"},
		{"znode.unmarshal_ns", unmarshal.ns, "ns"},
		{"znode.roundtrip_allocs", marshal.allocs + unmarshal.allocs, "count"},
	}
}

package fkclient

// Tests of multi() (package txn + the core fast path) from the client's
// perspective, beyond conform's Atomic group (commit, per-op aborts and
// sequential names on every target): validation aborts with no partial
// effects across shards, and the cross_shard answer. On a sharded
// deployment the pairs a multi() writes sit under one top-level node, so
// they share a shard. The randomized multi() histories (torn multi()s,
// version-guarded races, create+set under a shared root, multi()s over two
// top-level paths) are chaos's, judged by histcheck and the at-rest audit.

import (
	"errors"
	"fmt"
	"testing"

	"faaskeeper/internal/core"
	"faaskeeper/internal/sim"
	"faaskeeper/internal/txn"
	"faaskeeper/internal/znode"
)

// TestUnsendableMultiLeavesTheSessionUsable: a multi() whose ops each fit
// a node but together overflow the session queue's message limit never
// leaves the client; it is answered with a system error in its place in the
// session's order, and the next write is answered as usual.
func TestUnsendableMultiLeavesTheSessionUsable(t *testing.T) {
	run(t, 82, core.Config{}, func(k *sim.Kernel, d *core.Deployment) {
		c := mustConnect(t, d, "s1")
		defer c.Close()
		big := make([]byte, 200*1024)
		if _, err := c.Multi(txn.Create("/a", big, 0), txn.Create("/b", big, 0)); !errors.Is(err, core.ErrSystemError) {
			t.Fatalf("a 400 kB multi(): %v, want ErrSystemError", err)
		}
		if _, err := c.Create("/after", nil, 0); err != nil {
			t.Errorf("the write after the unsendable multi(): %v", err)
		}
	})
}

func TestMultiValidationAbortLeavesNoTrace(t *testing.T) {
	for _, shards := range []int{1, 4} {
		shards := shards
		t.Run(fmt.Sprintf("shards%d", shards), func(t *testing.T) {
			run(t, int64(83+shards), core.Config{WriteShards: shards}, func(k *sim.Kernel, d *core.Deployment) {
				c := mustConnect(t, d, "s1")
				defer c.Close()
				paths := shardedPaths(shards, max(2, shards))
				for _, p := range paths {
					if _, err := c.Create(p, []byte("v0"), 0); err != nil {
						t.Fatalf("create %s: %v", p, err)
					}
				}
				// The version check on the last op fails: nothing applies.
				ops := []txn.Op{
					txn.SetData(paths[0], []byte("new"), 0),
					txn.SetData(paths[1], []byte("new"), 7), // wrong version
				}
				results, err := c.Multi(ops...)
				if !errors.Is(err, core.ErrBadVersion) {
					t.Fatalf("multi err = %v, want ErrBadVersion", err)
				}
				if len(results) != 2 || results[1].Code != string(core.CodeBadVersion) ||
					results[0].Code != txn.CodeAborted {
					t.Errorf("results = %+v", results)
				}
				for _, p := range paths[:2] {
					data, st, err := c.GetData(p)
					if err != nil || string(data) != "v0" || st.Version != 0 {
						t.Errorf("%s after abort: %q v%d (%v)", p, data, st.Version, err)
					}
				}
				// A later write proceeds normally: no lock or mark leaked.
				if _, err := c.SetData(paths[1], []byte("after"), 0); err != nil {
					t.Errorf("write after abort: %v", err)
				}
			})
		})
	}
}

// TestMultiTopLevelSequentialShardDrift: a top-level sequential create is
// named only during validation, and its name hashes to any shard. Where it
// lands on another shard than its sibling the multi() spans two shards: the
// sibling, the first op on the second shard, carries cross_shard, the
// create txn_aborted, and nothing is created. Next to a sibling on the
// name's own shard the same create commits, under that shard's txid.
func TestMultiTopLevelSequentialShardDrift(t *testing.T) {
	cfg := core.Config{WriteShards: 4, UserStore: core.StoreKV}
	run(t, 100, cfg, func(k *sim.Kernel, d *core.Deployment) {
		c := mustConnect(t, d, "s1")
		defer c.Close()
		anchors := shardedPaths(4, 4) // anchors[s] is on shard s
		for _, p := range anchors {
			if _, err := c.Create(p, nil, 0); err != nil {
				t.Fatalf("create %s: %v", p, err)
			}
		}
		// The root's counter stands at the four creates.
		name := znode.SequentialName("/seq-", 4)
		shard := core.ShardOf(name, 4)
		multi := func(anchor string) ([]txn.Result, error) {
			return c.Multi(
				txn.Create("/seq-", []byte("x"), znode.FlagSequential),
				txn.SetData(anchor, []byte("x"), 0),
			)
		}
		results, err := multi(anchors[(shard+1)%4])
		if !errors.Is(err, core.ErrCrossShard) {
			t.Errorf("multi drifting onto shard %d: %v, want ErrCrossShard", shard, err)
			return
		}
		if results[0].Code != txn.CodeAborted || results[1].Code != string(core.CodeCrossShard) {
			t.Errorf("results = %+v, want [txn_aborted cross_shard]", results)
		}
		if st, err := c.Exists(name); err != nil || st != nil {
			t.Errorf("%s after the rejection: %v (%v)", name, st, err)
		}
		results, err = multi(anchors[shard])
		if err != nil {
			t.Errorf("multi on the name's own shard: %v", err)
			return
		}
		if p := results[0].Path; p != name || int(results[0].Txid%4) != shard {
			t.Errorf("create %s committed under shard %d; want %s under shard %d", p, results[0].Txid%4, name, shard)
		}
		if data, _, err := c.GetData(name); err != nil || string(data) != "x" {
			t.Errorf("read %s: %q (%v)", name, data, err)
		}
	})
}

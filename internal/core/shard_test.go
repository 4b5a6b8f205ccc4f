package core

import (
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"faaskeeper/internal/cloud"
	"faaskeeper/internal/cloud/kv"
	"faaskeeper/internal/fksync"
	"faaskeeper/internal/znode"
)

// TestShardOfSingleShardAndRoot: the degenerate cases are pinned — one
// shard routes everything to 0, and the root itself lives on shard 0.
func TestShardOfSingleShardAndRoot(t *testing.T) {
	for _, p := range []string{"/", "/a", "/a/b/c", "/deep/er/path"} {
		if s := ShardOf(p, 1); s != 0 {
			t.Errorf("ShardOf(%q, 1) = %d, want 0", p, s)
		}
	}
	for _, n := range []int{1, 2, 8} {
		if s := ShardOf(znode.Root, n); s != 0 {
			t.Errorf("ShardOf(/, %d) = %d, want 0", n, s)
		}
	}
}

// TestDeploymentProvisionsShards: the deployment wires one ordered queue
// per shard, keeps the paper's queue name for the single-shard layout, and
// defaults to one shard.
func TestDeploymentProvisionsShards(t *testing.T) {
	_, d := newTestDeployment(11, Config{})
	if d.NumShards() != 1 || d.LeaderQs[0].Name() != "leader" {
		t.Fatalf("default deployment: %d shards, queue %q", d.NumShards(), d.LeaderQs[0].Name())
	}
	_, d4 := newTestDeployment(12, Config{WriteShards: 4})
	if d4.NumShards() != 4 {
		t.Fatalf("NumShards = %d, want 4", d4.NumShards())
	}
	for i, q := range d4.LeaderQs {
		if q.Name() != fmt.Sprintf("leader-%d", i) {
			t.Errorf("shard %d queue named %q", i, q.Name())
		}
		if !q.Ordered() {
			t.Errorf("shard %d queue not ordered", i)
		}
	}
}

// TestAtRestFlagsEachDisagreement: the at-rest audit is clean on a fresh
// two-shard deployment and names each planted disagreement between the
// system store and the user store: a record without its object, a stale
// object, a shared root whose object lacks a shard's child stamp, an epoch
// entry stranded by a delivery that never exited, a record listing a child
// that has no record, an object stored under another path, a fire record
// whose txid is no longer pending, and a parent's child fire record its
// claim never removed, and a lock younger than the lease — but not a fire
// record whose pop is still to run, nor an expired lock.
func TestAtRestFlagsEachDisagreement(t *testing.T) {
	k, d := newTestDeployment(3, Config{WriteShards: 2})
	ctx := cloud.ClientCtx(d.Cfg.Profile.Home)
	var clean, planted []string
	k.Go("audit", func() {
		clean = d.AtRest(ctx)
		d.System.SeedPut("/gone", kv.Item{{Name: attrExists, V: kv.N(1)}, {Name: attrMzxid, V: kv.N(4)}})
		d.System.SeedPut("/stale", kv.Item{{Name: attrExists, V: kv.N(1)}, {Name: attrVersion, V: kv.N(2)}})
		d.Stores[0].Seed(&znode.Node{Path: "/stale", Stat: znode.Stat{Version: 1}})
		root, _ := d.System.Peek(znode.Root)
		root.Set(d.pzxidAttrs[1], kv.N(7))
		d.System.SeedPut(znode.Root, root)
		// A stranded entry: shard 1's delivery of txid 5 died before its exit.
		d.System.SeedPut(d.epochKey(d.Cfg.Profile.Home), kv.Item{{Name: string(appendEntryName(nil, entryPrefix(1), 5, 0)), V: kv.N(9)}})
		d.System.SeedPut("/orphans", kv.Item{{Name: attrExists, V: kv.N(1)}, {Name: attrChildren, V: kv.StrList("ghost")}})
		d.Stores[0].Seed(&znode.Node{Path: "/orphans", Children: []string{"ghost"}})
		d.System.SeedPut("/moved", kv.Item{{Name: attrExists, V: kv.N(1)}})
		d.Stores[0].(*objectStore).bucket.SeedPut("/moved", znode.Marshal(&znode.Node{Path: "/elsewhere"}, nil))
		// Fire records: txid 5's is its pop's to remove, txid 3's outlived
		// its pop, and a parent's child fire record outlived its claim.
		var b5, b3, b4 fireBuf
		d.System.SeedPut("/fired", kv.Item{{Name: attrExists, V: kv.N(1)}, {Name: attrMzxid, V: kv.N(5)},
			{Name: attrPending, V: kv.NumList(5)}, {Name: fireRecords(&b5, 5)[WatchData-1], V: kv.StrList("a")},
			{Name: fireRecords(&b3, 3)[WatchData-1], V: kv.StrList("b")}})
		d.Stores[0].Seed(&znode.Node{Path: "/fired", Stat: znode.Stat{Mzxid: 5}})
		d.System.SeedPut("/kids", kv.Item{{Name: attrExists, V: kv.N(1)}, {Name: fireRecords(&b4, 4)[WatchChild-1], V: kv.StrList("c")}})
		d.Stores[0].Seed(&znode.Node{Path: "/kids"})
		// A lock younger than the lease is live at rest; an expired one is not.
		k.Sleep(10 * time.Second)
		now := int64(k.Now())
		d.System.SeedPut("/locked", kv.Item{{Name: attrExists, V: kv.N(1)}, {Name: fksync.LockAttr, V: kv.N(now - int64(time.Second))}})
		d.Stores[0].Seed(&znode.Node{Path: "/locked"})
		d.System.SeedPut("/expired", kv.Item{{Name: attrExists, V: kv.N(1)}, {Name: fksync.LockAttr, V: kv.N(now - int64(lockLease))}})
		d.Stores[0].Seed(&znode.Node{Path: "/expired"})
		planted = d.AtRest(ctx)
	})
	k.Run()
	k.Shutdown()
	if len(clean) != 0 {
		t.Errorf("a fresh deployment is not at rest: %v", clean)
	}
	for _, want := range []string{"/gone in", "/stale in", "/ in", "epoch:", "/orphans: record lists child ghost", "/moved in",
		"/fired: fire record f3.data", "/kids: fire record f4.child", "/locked: lock"} {
		if !slices.ContainsFunc(planted, func(f string) bool { return strings.HasPrefix(f, want) }) {
			t.Errorf("no finding starts with %q: %v", want, planted)
		}
	}
	if len(planted) != 9 {
		t.Errorf("%d findings, want 9: %v", len(planted), planted)
	}
}

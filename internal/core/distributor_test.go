package core

import (
	"maps"
	"testing"

	"faaskeeper/internal/znode"
)

// TestBatchFoldDeleteEndsChain: a create and then a delete of one child in
// one chunk fold to the tombstone, with the child absent from its parent's
// splice. No chaos workload puts both into one chunk: a fold that kept such
// a child present leaves the PR smoke green, so this test is the one that
// catches it.
func TestBatchFoldDeleteEndsChain(t *testing.T) {
	f := newBatchFold()
	f.foldWrite("/a/y", znode.Node{Path: "/a/y"}, 4)
	f.foldParent("/a", "y", "", 1, 4)
	f.foldWrite("/a/y", znode.Node{}, 6)
	f.foldParent("/a", "", "y", 2, 6)
	nf := f.nodes[f.nodeAt["/a/y"]]
	if nf.path != "/a/y" || nf.live() || nf.txid != 6 {
		t.Fatalf("final state must be the tombstone: %+v", nf)
	}
	if f.parents[f.parentAt["/a"]].present["y"] {
		t.Fatal("child y must be absent")
	}
}

// TestBatchFoldInvalidations: the record holds only the paths the leg's
// rule fences — a delete here, every path of an atomic batch — each once,
// at its newest folded txid, with the stamp. A plain node write, a node
// that absorbed its splice and a standalone parent RMW are installed after
// their store writes instead. The shared root is left unconsumed, as
// distributeFold leaves it: the leg splices it with its own RMW, and only
// the atomic record fences it (readers read it past the cache).
func TestBatchFoldInvalidations(t *testing.T) {
	f := newBatchFold()
	f.foldWrite("/p", znode.Node{Path: "/p"}, 2)
	f.foldWrite("/p/c", znode.Node{Path: "/p/c"}, 5)
	f.foldParent("/p", "c", "", 1, 5)
	f.foldParent("/q", "d", "", 1, 7)
	f.foldWrite("/q/d", znode.Node{}, 7)
	f.foldParent("/", "r", "", 1, 8)

	// /p's splice folds into its node write (the distributor marks it
	// consumed and raises the node txid); /q stays a standalone parent RMW;
	// the root is a shared parent, spliced by each leg under the root lock.
	pf := &f.parents[f.parentAt["/p"]]
	pf.consumed = true
	if nf := &f.nodes[f.nodeAt["/p"]]; pf.pzxid > nf.txid {
		nf.txid = pf.pzxid
	}

	record := func(atomic bool) map[string]int64 {
		got := map[string]int64{}
		for _, inv := range f.appendInvalidations(nil, atomic) {
			if _, dup := got[inv.Path]; dup {
				t.Fatalf("path %s invalidated twice in one record", inv.Path)
			}
			got[inv.Path] = inv.Mzxid
		}
		return got
	}
	for _, tc := range []struct {
		atomic bool
		want   map[string]int64
	}{
		{false, map[string]int64{"/q/d": 7}},
		{true, map[string]int64{"/p": 5, "/p/c": 5, "/q/d": 7, "/q": 7, "/": 8}},
	} {
		if got := record(tc.atomic); !maps.Equal(got, tc.want) {
			t.Errorf("atomic=%v: invalidations = %v, want exactly %v", tc.atomic, got, tc.want)
		}
	}
}

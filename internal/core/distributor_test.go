package core

import (
	"maps"
	"slices"
	"testing"

	"faaskeeper/internal/znode"
)

// nodePaths and parentPaths list a fold's entries in first-touch order.
func nodePaths(f *batchFold) (paths []string) {
	for _, nf := range f.nodes {
		paths = append(paths, nf.path)
	}
	return paths
}

func parentPaths(f *batchFold) (paths []string) {
	for _, pf := range f.parents {
		paths = append(paths, pf.path)
	}
	return paths
}

func TestBatchFoldLastWriteWins(t *testing.T) {
	f := newBatchFold()
	f.foldWrite("/a", &znode.Node{Path: "/a", Data: []byte("1"), Stat: znode.Stat{Mzxid: 1}}, 1)
	f.foldWrite("/a", &znode.Node{Path: "/a", Data: []byte("2"), Stat: znode.Stat{Mzxid: 5}}, 5)
	f.foldWrite("/b", &znode.Node{Path: "/b"}, 3)
	if got := nodePaths(f); !slices.Equal(got, []string{"/a", "/b"}) {
		t.Fatalf("order = %v", got)
	}
	nf := f.nodes[f.nodeAt["/a"]]
	if nf.path != "/a" || nf.node == nil || string(nf.node.Data) != "2" || nf.txid != 5 {
		t.Fatalf("fold of /a = %+v", nf)
	}
}

func TestBatchFoldCreateDeleteCreate(t *testing.T) {
	f := newBatchFold()
	f.foldWrite("/a/x", &znode.Node{Path: "/a/x", Data: []byte("one")}, 1)
	f.foldParent("/a", "x", "", 1, 1)
	f.foldWrite("/a/x", nil, 2)
	f.foldParent("/a", "", "x", 2, 2)
	f.foldWrite("/a/x", &znode.Node{Path: "/a/x", Data: []byte("two")}, 3)
	f.foldParent("/a", "x", "", 3, 3)

	nf := f.nodes[f.nodeAt["/a/x"]]
	if nf.node == nil || string(nf.node.Data) != "two" || nf.txid != 3 {
		t.Fatalf("final node state = %+v", nf)
	}
	pf := f.parents[f.parentAt["/a"]]
	if !pf.present["x"] {
		t.Fatal("child x must be present after create-delete-create")
	}
	if pf.cversion != 3 || pf.pzxid != 3 {
		t.Fatalf("parent stamps = cversion %d pzxid %d, want 3/3", pf.cversion, pf.pzxid)
	}
	if len(f.nodes) != 1 || len(f.parents) != 1 || pf.path != "/a" {
		t.Fatalf("one node + one parent expected: %v %v", nodePaths(f), parentPaths(f))
	}
}

func TestBatchFoldDeleteEndsChain(t *testing.T) {
	f := newBatchFold()
	f.foldWrite("/a/y", &znode.Node{Path: "/a/y"}, 4)
	f.foldParent("/a", "y", "", 1, 4)
	f.foldWrite("/a/y", nil, 6)
	f.foldParent("/a", "", "y", 2, 6)
	nf := f.nodes[f.nodeAt["/a/y"]]
	if nf.path != "/a/y" || nf.node != nil || nf.txid != 6 {
		t.Fatalf("final state must be the tombstone: %+v", nf)
	}
	if f.parents[f.parentAt["/a"]].present["y"] {
		t.Fatal("child y must be absent")
	}
}

func TestSpliceIntoIdempotentAndRaising(t *testing.T) {
	pf := &parentFold{present: map[string]bool{}, cversion: 7, pzxid: 42}
	pf.names = []string{"x", "y", "z"}
	pf.present["x"] = true  // already in the object: no duplicate
	pf.present["y"] = false // removed
	pf.present["z"] = true  // added
	n := &znode.Node{
		Path:     "/p",
		Children: []string{"x", "y"},
		Stat:     znode.Stat{Cversion: 9, Pzxid: 40},
	}
	spliceInto(n, pf)
	if len(n.Children) != 2 || !slices.Contains(n.Children, "x") || !slices.Contains(n.Children, "z") {
		t.Fatalf("children = %v, want [x z]", n.Children)
	}
	if n.Stat.Cversion != 9 {
		t.Errorf("cversion lowered to %d: stamps must only raise", n.Stat.Cversion)
	}
	if n.Stat.Pzxid != 42 {
		t.Errorf("pzxid = %d, want raised to 42", n.Stat.Pzxid)
	}
	if n.Stat.NumChildren != 2 {
		t.Errorf("NumChildren = %d", n.Stat.NumChildren)
	}
}

// TestBatchFoldInvalidations: the record holds only the paths the leg's
// rule fences — a delete and a shared parent's splices here, every path of
// an atomic batch — each once, at its newest folded txid, with the stamp.
// A plain node write, a node that absorbed its splice and a standalone
// parent RMW are installed after their store writes instead. The shared
// root is left unconsumed, as distributeFold leaves it: the leg splices it
// with its own RMW, and both records fence it.
func TestBatchFoldInvalidations(t *testing.T) {
	f := newBatchFold()
	f.foldWrite("/p", &znode.Node{Path: "/p"}, 2)
	f.foldWrite("/p/c", &znode.Node{Path: "/p/c"}, 5)
	f.foldParent("/p", "c", "", 1, 5)
	f.foldParent("/q", "d", "", 1, 7)
	f.foldWrite("/q/d", nil, 7)
	f.foldParent("/", "r", "", 1, 8)

	// /p's splice folds into its node write (the distributor marks it
	// consumed and raises the node txid); /q stays a standalone parent RMW;
	// the root is a shared parent, spliced by each leg under the root lock.
	pf := &f.parents[f.parentAt["/p"]]
	pf.consumed = true
	if nf := &f.nodes[f.nodeAt["/p"]]; pf.pzxid > nf.txid {
		nf.txid = pf.pzxid
	}

	stamp := []int64{11}
	record := func(atomic bool) map[string]int64 {
		fenced := func(path string, del bool) bool { return del || atomic || path == "/" }
		got := map[string]int64{}
		for _, inv := range f.appendInvalidations(nil, stamp, fenced) {
			if _, dup := got[inv.Path]; dup {
				t.Fatalf("path %s invalidated twice in one record", inv.Path)
			}
			got[inv.Path] = inv.Mzxid
			if len(inv.Epoch) != 1 || inv.Epoch[0] != 11 {
				t.Errorf("epoch stamp lost on %s: %v", inv.Path, inv.Epoch)
			}
		}
		return got
	}
	for _, tc := range []struct {
		atomic bool
		want   map[string]int64
	}{
		{false, map[string]int64{"/q/d": 7, "/": 8}},
		{true, map[string]int64{"/p": 5, "/p/c": 5, "/q/d": 7, "/q": 7, "/": 8}},
	} {
		if got := record(tc.atomic); !maps.Equal(got, tc.want) {
			t.Errorf("atomic=%v: invalidations = %v, want exactly %v", tc.atomic, got, tc.want)
		}
	}
}

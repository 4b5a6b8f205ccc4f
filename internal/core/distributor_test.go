package core

import (
	"slices"
	"testing"

	"faaskeeper/internal/znode"
)

func TestBatchFoldLastWriteWins(t *testing.T) {
	f := newBatchFold()
	f.foldWrite("/a", &znode.Node{Path: "/a", Data: []byte("1"), Stat: znode.Stat{Mzxid: 1}}, 1)
	f.foldWrite("/a", &znode.Node{Path: "/a", Data: []byte("2"), Stat: znode.Stat{Mzxid: 5}}, 5)
	f.foldWrite("/b", &znode.Node{Path: "/b"}, 3)
	if len(f.order) != 2 || f.order[0] != "/a" || f.order[1] != "/b" {
		t.Fatalf("order = %v", f.order)
	}
	nf := f.nodes["/a"]
	if string(nf.node.Data) != "2" || nf.txid != 5 || nf.del {
		t.Fatalf("fold of /a = %+v", nf)
	}
}

func TestBatchFoldCreateDeleteCreate(t *testing.T) {
	f := newBatchFold()
	f.foldWrite("/a/x", &znode.Node{Path: "/a/x", Data: []byte("one")}, 1)
	f.foldParent("/a", "x", "", 1, 1)
	f.foldDelete("/a/x", 2)
	f.foldParent("/a", "", "x", 2, 2)
	f.foldWrite("/a/x", &znode.Node{Path: "/a/x", Data: []byte("two")}, 3)
	f.foldParent("/a", "x", "", 3, 3)

	nf := f.nodes["/a/x"]
	if nf.del || string(nf.node.Data) != "two" || nf.txid != 3 {
		t.Fatalf("final node state = %+v", nf)
	}
	pf := f.parents["/a"]
	if !pf.present["x"] {
		t.Fatal("child x must be present after create-delete-create")
	}
	if pf.cversion != 3 || pf.pzxid != 3 {
		t.Fatalf("parent stamps = cversion %d pzxid %d, want 3/3", pf.cversion, pf.pzxid)
	}
	if len(f.order) != 1 || len(f.parentOrder) != 1 {
		t.Fatalf("one node + one parent expected: %v %v", f.order, f.parentOrder)
	}
}

func TestBatchFoldDeleteEndsChain(t *testing.T) {
	f := newBatchFold()
	f.foldWrite("/a/y", &znode.Node{Path: "/a/y"}, 4)
	f.foldParent("/a", "y", "", 1, 4)
	f.foldDelete("/a/y", 6)
	f.foldParent("/a", "", "y", 2, 6)
	nf := f.nodes["/a/y"]
	if !nf.del || nf.node != nil || nf.txid != 6 {
		t.Fatalf("final state must be the tombstone: %+v", nf)
	}
	if f.parents["/a"].present["y"] {
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

func TestBatchFoldInvalidations(t *testing.T) {
	f := newBatchFold()
	f.foldWrite("/p", &znode.Node{Path: "/p"}, 2)
	f.foldWrite("/p/c", &znode.Node{Path: "/p/c"}, 5)
	f.foldParent("/p", "c", "", 1, 5)
	f.foldParent("/q", "d", "", 1, 7)

	// /p's splice folds into its node write (the distributor marks it
	// consumed and raises the node txid); /q stays a standalone parent RMW.
	pf := f.parents["/p"]
	pf.consumed = true
	if pf.pzxid > f.nodes["/p"].txid {
		f.nodes["/p"].txid = pf.pzxid
	}

	stamp := []int64{11}
	invs := f.appendInvalidations(nil, stamp)
	got := map[string]int64{}
	for _, inv := range invs {
		if _, dup := got[inv.Path]; dup {
			t.Fatalf("path %s invalidated twice in one record", inv.Path)
		}
		got[inv.Path] = inv.Mzxid
		if len(inv.Epoch) != 1 || inv.Epoch[0] != 11 {
			t.Errorf("epoch stamp lost on %s: %v", inv.Path, inv.Epoch)
		}
	}
	want := map[string]int64{"/p": 5, "/p/c": 5, "/q": 7}
	for p, m := range want {
		if got[p] != m {
			t.Errorf("invalidation for %s at txid %d, want %d (all: %v)", p, got[p], m, got)
		}
	}
	if len(got) != len(want) {
		t.Errorf("invalidations = %v, want exactly %v", got, want)
	}
}

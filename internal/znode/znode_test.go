package znode

import (
	"bytes"
	"errors"
	"strings"
	"testing"
	"testing/quick"
)

func TestValidatePath(t *testing.T) {
	valid := []string{"/", "/a", "/a/b", "/config/server-1", "/a/b/c/d/e"}
	for _, p := range valid {
		if err := ValidatePath(p); err != nil {
			t.Errorf("ValidatePath(%q) = %v", p, err)
		}
	}
	invalid := []string{"", "a", "a/b", "/a/", "//", "/a//b", "/a/./b", "/a/../b", "/a/\x00b"}
	for _, p := range invalid {
		if err := ValidatePath(p); !errors.Is(err, ErrBadPath) {
			t.Errorf("ValidatePath(%q) = %v, want ErrBadPath", p, err)
		}
	}
}

func TestParentBaseJoin(t *testing.T) {
	cases := []struct{ p, parent, base string }{
		{"/", "/", ""},
		{"/a", "/", "a"},
		{"/a/b", "/a", "b"},
		{"/a/b/c", "/a/b", "c"},
	}
	for _, c := range cases {
		if got := Parent(c.p); got != c.parent {
			t.Errorf("Parent(%q) = %q", c.p, got)
		}
		if got := Base(c.p); got != c.base {
			t.Errorf("Base(%q) = %q", c.p, got)
		}
	}
	if Join("/", "a") != "/a" || Join("/a", "b") != "/a/b" {
		t.Error("Join broken")
	}
}

func TestJoinParentInverseProperty(t *testing.T) {
	f := func(segs []string) bool {
		p := Root
		for _, s := range segs {
			s = strings.Map(func(r rune) rune {
				if r == '/' || r == 0 {
					return 'x'
				}
				return r
			}, s)
			if s == "" || s == "." || s == ".." {
				s = "seg"
			}
			child := Join(p, s)
			if ValidatePath(child) != nil {
				return false
			}
			if Parent(child) != p || Base(child) != s {
				return false
			}
			p = child
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSequentialName(t *testing.T) {
	if got := SequentialName("/locks/lock-", 7); got != "/locks/lock-0000000007" {
		t.Fatalf("got %q", got)
	}
	if SequentialName("/a-", 1) >= SequentialName("/a-", 2) {
		t.Fatal("sequential names must sort")
	}
}

func TestMarshalRoundTrip(t *testing.T) {
	n := &Node{
		Path: "/config/service",
		Data: []byte("payload-data"),
		Stat: Stat{
			Czxid: 10, Mzxid: 42, Pzxid: 40,
			Version: 3, Cversion: 2,
			Ephemeral: true, Owner: "session-9",
		},
		Children: []string{"b", "a", "c"},
	}
	epoch := []int64{100, 200, -1}
	buf := Marshal(n, epoch)
	got, gotEpoch, err := Unmarshal(buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Path != n.Path || !bytes.Equal(got.Data, n.Data) {
		t.Fatalf("node mismatch: %+v", got)
	}
	if got.Stat.Czxid != 10 || got.Stat.Mzxid != 42 || got.Stat.Pzxid != 40 ||
		got.Stat.Version != 3 || got.Stat.Cversion != 2 ||
		!got.Stat.Ephemeral || got.Stat.Owner != "session-9" {
		t.Fatalf("stat mismatch: %+v", got.Stat)
	}
	if got.Stat.DataLength != int32(len(n.Data)) || got.Stat.NumChildren != 3 {
		t.Fatalf("derived stat mismatch: %+v", got.Stat)
	}
	if len(gotEpoch) != 3 || gotEpoch[0] != 100 || gotEpoch[2] != -1 {
		t.Fatalf("epoch mismatch: %v", gotEpoch)
	}
	if got.Children[0] != "b" || got.Children[1] != "a" {
		t.Fatalf("children order not preserved: %v", got.Children)
	}
}

func TestMarshalRoundTripProperty(t *testing.T) {
	f := func(data []byte, children []string, epoch []int64, czxid, mzxid int64, version int32) bool {
		n := &Node{
			Path:     "/p",
			Data:     data,
			Stat:     Stat{Czxid: czxid, Mzxid: mzxid, Version: version},
			Children: children,
		}
		buf := Marshal(n, epoch)
		got, gotEpoch, err := Unmarshal(buf)
		if err != nil {
			return false
		}
		if !bytes.Equal(got.Data, data) || got.Stat.Czxid != czxid ||
			got.Stat.Mzxid != mzxid || got.Stat.Version != version {
			return false
		}
		if len(got.Children) != len(children) || len(gotEpoch) != len(epoch) {
			return false
		}
		for i := range children {
			if got.Children[i] != children[i] {
				return false
			}
		}
		for i := range epoch {
			if gotEpoch[i] != epoch[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestUnmarshalRejectsCorrupt(t *testing.T) {
	n := &Node{Path: "/a", Data: []byte("xyz")}
	buf := Marshal(n, nil)
	for _, bad := range [][]byte{
		nil,
		{},
		{99},    // wrong version
		buf[:4], // truncated
		buf[:len(buf)/2],
	} {
		if _, _, err := Unmarshal(bad); err == nil {
			t.Errorf("Unmarshal(%v) accepted corrupt input", bad)
		}
	}
}

func TestCloneIsDeep(t *testing.T) {
	n := &Node{Path: "/a", Data: []byte{1}, Children: []string{"x"}}
	c := n.Clone()
	c.Data[0] = 9
	c.Children[0] = "y"
	if n.Data[0] != 1 || n.Children[0] != "x" {
		t.Fatal("clone aliases original")
	}
}

func TestSortedChildren(t *testing.T) {
	n := &Node{Children: []string{"c", "a", "b"}}
	got := n.SortedChildren()
	if got[0] != "a" || got[1] != "b" || got[2] != "c" {
		t.Fatalf("sorted = %v", got)
	}
	if n.Children[0] != "c" {
		t.Fatal("SortedChildren mutated the node")
	}
}

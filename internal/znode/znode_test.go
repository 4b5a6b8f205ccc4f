package znode

import (
	"bytes"
	"errors"
	"strings"
	"testing"
	"testing/quick"
	"unsafe"
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

// TestPerShardChildStampsRoundTrip: a node with per-shard child stamps
// (the shared root of a sharded deployment) carries them after its epoch
// stamp, and a node without them encodes exactly as if the field did not
// exist: its blob ends with the epoch stamp.
func TestPerShardChildStampsRoundTrip(t *testing.T) {
	n := &Node{Path: "/", Stat: Stat{Pzxid: 85}, Children: []string{"a", "b"}}
	plain := Marshal(n, []int64{7})
	if want := append(bytes.Clone(plain[:len(plain)-2]), 1, 14); !bytes.Equal(plain, want) {
		t.Fatalf("a node without stamps ends % x, want its epoch stamp [7] last", plain)
	}
	got, _, err := Unmarshal(plain)
	if err != nil || got.Pzxids != nil {
		t.Fatalf("no stamps: %v %v", got.Pzxids, err)
	}
	n.Pzxids = []int64{84, 85, 0}
	got, epoch, err := Unmarshal(Marshal(n, []int64{7}))
	if err != nil || len(epoch) != 1 || epoch[0] != 7 {
		t.Fatalf("epoch %v %v", epoch, err)
	}
	if len(got.Pzxids) != 3 || got.Pzxids[0] != 84 || got.Pzxids[1] != 85 || got.Pzxids[2] != 0 {
		t.Fatalf("stamps %v, want %v", got.Pzxids, n.Pzxids)
	}
	if c := n.Clone(); &c.Pzxids[0] == &n.Pzxids[0] {
		t.Fatal("clone aliases the stamps")
	}
}

// TestUnmarshalStringsBorrow: the path, the owner and every child name are
// views into the decoded blob, under both decoders; only UnmarshalView's
// Data is a view too.
func TestUnmarshalStringsBorrow(t *testing.T) {
	n := &Node{Path: "/p", Data: []byte("d"), Stat: Stat{Ephemeral: true, Owner: "s1"}, Children: []string{"c1", "c2"}}
	for _, view := range []bool{false, true} {
		buf := Marshal(n, nil)
		got := &Node{}
		_, err := unmarshal(buf, got, view)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range []string{got.Path, got.Stat.Owner, got.Children[0], got.Children[1]} {
			if !within(s, buf) {
				t.Errorf("view=%v: %q is a copy, want a view into the blob", view, s)
			}
		}
		if dataView := &got.Data[0] == &buf[bytes.Index(buf, []byte("d"))]; dataView != view {
			t.Errorf("view=%v: Data is a view: %v", view, dataView)
		}
	}
}

// within reports whether s's bytes lie inside b.
func within(s string, b []byte) bool {
	p := uintptr(unsafe.Pointer(unsafe.StringData(s)))
	lo := uintptr(unsafe.Pointer(unsafe.SliceData(b)))
	return len(s) > 0 && p >= lo && p+uintptr(len(s)) <= lo+uintptr(len(b))
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
		if app := AppendMarshal([]byte{7}, n, epoch); app[0] != 7 || !bytes.Equal(app[1:], buf) {
			return false
		}
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

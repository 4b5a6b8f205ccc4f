package txn

import "testing"

func TestOpsCodecRoundTrip(t *testing.T) {
	ops := []Op{
		Create("/a", []byte("x"), 3),
		SetData("/b", []byte("y"), 7),
		Delete("/c", -1),
		Check("/d", 2),
	}
	got, err := DecodeOps(EncodeOps(ops))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(got) != len(ops) || got[0].Type != OpCreate || string(got[1].Data) != "y" ||
		got[2].Version != -1 || got[3].Path != "/d" {
		t.Errorf("round trip = %+v", got)
	}
	resolved := []ResolvedOp{{Type: OpCreate, Path: "/a", ParentPath: "/", Cversion: 2, ChildAdd: "a"}}
	r2, err := roundTripResolved(resolved)
	if err != nil || len(r2) != 1 || r2[0].Cversion != 2 || r2[0].ChildAdd != "a" {
		t.Errorf("resolved round trip = %+v (%v)", r2, err)
	}
}

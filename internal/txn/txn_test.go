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
}

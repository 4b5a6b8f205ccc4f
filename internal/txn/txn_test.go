package txn

import (
	"errors"
	"testing"

	"faaskeeper/internal/cloud"
	"faaskeeper/internal/cloud/kv"
	"faaskeeper/internal/sim"
)

func newStore(seed int64) (*sim.Kernel, *Store, cloud.Ctx) {
	k := sim.NewKernel(seed)
	env := cloud.NewEnv(k, cloud.AWSProfile())
	tbl := kv.NewTable(env, "system")
	return k, NewStore(tbl, k), cloud.ClientCtx(cloud.RegionAWSHome)
}

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
	resolved := []ResolvedOp{{Type: OpCreate, Path: "/a", ParentPath: "/", ChildAdd: "a", Shard: 2}}
	r2, err := DecodeResolved(EncodeResolved(resolved))
	if err != nil || len(r2) != 1 || r2[0].Shard != 2 || r2[0].ChildAdd != "a" {
		t.Errorf("resolved round trip = %+v (%v)", r2, err)
	}
}

func TestRecordLifecycle(t *testing.T) {
	k, s, ctx := newStore(1)
	k.Go("test", func() {
		id, err := s.Mint(ctx)
		if err != nil || id != 1 {
			t.Errorf("mint: %d %v", id, err)
		}
		// The record is born committed, in the caller's transaction.
		resolved := []ResolvedOp{{Type: OpSetData, Path: "/a", Version: 1, Shard: 2}}
		commit := s.Commit(id, "sess", 7, resolved, map[int]int64{2: 42, 0: 40})
		if err := s.tbl.Transact(ctx, commit); err != nil {
			t.Fatalf("commit: %v", err)
		}
		if got, ok := s.IDForRequest(ctx, "sess", 7); !ok || got != id {
			t.Errorf("IDForRequest = %d %v", got, ok)
		}
		rec, found := s.Lookup(ctx, id)
		if !found || rec.Status != StatusCommitted || len(rec.Resolved) != 1 || rec.Resolved[0].Version != 1 ||
			rec.Commits[0] != 40 || rec.Commits[2] != 42 {
			t.Fatalf("committed record = %+v %v", rec, found)
		}
		// A second attempt at the same request cannot commit.
		if err := s.tbl.Transact(ctx, s.Commit(id+1, "sess", 7, resolved, nil)); !errors.Is(err, kv.ErrConditionFailed) {
			t.Errorf("second commit of one request = %v, want ErrConditionFailed", err)
		}
		// Ready markers accumulate per shard; duplicates count once.
		for _, shard := range []int{0, 2, 2} {
			if err := s.Ready(ctx, id, shard); err != nil {
				t.Fatalf("ready: %v", err)
			}
		}
		if rec, _ := s.Lookup(ctx, id); len(rec.Ready) != 2 {
			t.Errorf("ready = %v", rec.Ready)
		}
		if !s.AwaitReady(ctx, id, 2) {
			t.Error("await ready timed out")
		}
		// committed -> applied is conditional and one-way.
		if err := s.MarkApplied(ctx, id); err != nil {
			t.Fatalf("mark applied: %v", err)
		}
		if err := s.MarkApplied(ctx, id); !errors.Is(err, kv.ErrConditionFailed) {
			t.Errorf("second mark applied = %v, want ErrConditionFailed", err)
		}
		if !s.AwaitApplied(ctx, id) {
			t.Error("await applied timed out")
		}
		s.Delete(ctx, id, "sess", 7)
		if _, found := s.Lookup(ctx, id); found {
			t.Error("record survived delete")
		}
		if _, ok := s.IDForRequest(ctx, "sess", 7); ok {
			t.Error("request pointer survived delete")
		}
		// A missing record reads as finished to any waiter.
		if !s.AwaitApplied(ctx, id) {
			t.Error("await on missing record timed out")
		}
	})
	k.Run()
	k.Shutdown()
}

func TestMintMonotonic(t *testing.T) {
	k, s, ctx := newStore(2)
	k.Go("test", func() {
		var last int64
		for i := 0; i < 5; i++ {
			id, err := s.Mint(ctx)
			if err != nil || id <= last {
				t.Errorf("mint %d: %d (%v)", i, id, err)
			}
			last = id
		}
	})
	k.Run()
	k.Shutdown()
}

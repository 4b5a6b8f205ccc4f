package core

// Regression tests for the user-store backends: the mem store's
// read-latency accounting and the hybrid store's spill lifecycle.

import (
	"bytes"
	"testing"

	"faaskeeper/internal/cloud"
	"faaskeeper/internal/sim"
	"faaskeeper/internal/znode"
)

// TestMemStoreReadChargesPostSleepSize: the transfer term of a mem-store
// read must be charged for the blob the read actually returns — the value
// present when the operation executes server-side — not for whatever the
// map held when the request was issued. A write that lands during the
// request's travel time is therefore both returned and paid for. (The old
// code looked the value up twice: latency from the pre-sleep blob, result
// from the post-sleep one, and the first lookup's hit/miss was discarded.)
func TestMemStoreReadChargesPostSleepSize(t *testing.T) {
	k := sim.NewKernel(7)
	env := cloud.NewEnv(k, cloud.AWSProfile())
	s := NewMemStore(env, cloud.RegionAWSHome)
	ctx := cloud.ClientCtx(cloud.RegionAWSHome)

	// 10 MB at MemReadPerKB = 0.012 ms/kB is ~123 ms of transfer —
	// orders of magnitude above MemReadBase's 5 ms max, so the assertion
	// below can only pass if the post-sleep blob's size was charged.
	const bigB = 10 << 20
	big := &znode.Node{Path: "/big", Data: bytes.Repeat([]byte("x"), bigB)}
	transfer := sim.Time(float64(env.Profile.MemReadPerKB) * bigB / 1024)

	var elapsed sim.Time
	var readData []byte
	k.Go("reader", func() {
		// At issue time the node does not exist yet; the writer below
		// creates it while this request is in flight.
		t0 := k.Now()
		n, _, err := s.Read(ctx, "/big")
		if err != nil {
			t.Errorf("read: %v", err)
			return
		}
		elapsed = k.Now() - t0
		readData = n.Data
	})
	k.Go("writer", func() {
		// MemReadBase samples at least 0.30 ms; seed the value inside
		// the reader's request-travel window (Seed applies instantly, so
		// the landing time is exact regardless of write latency).
		k.Sleep(sim.Ms(0.05))
		s.Seed(big)
	})
	k.Run()
	k.Shutdown()

	if len(readData) != bigB {
		t.Fatalf("read returned %d bytes, want the in-flight write's %d", len(readData), bigB)
	}
	if elapsed < transfer {
		t.Errorf("read took %v, below the %v transfer time of the returned blob: latency was charged for the wrong size", elapsed, transfer)
	}
}

// TestMemStoreReadMiss: a missing path still pays the request round trip
// and reports ErrUserNoNode.
func TestMemStoreReadMiss(t *testing.T) {
	k := sim.NewKernel(8)
	env := cloud.NewEnv(k, cloud.AWSProfile())
	s := NewMemStore(env, cloud.RegionAWSHome)
	ctx := cloud.ClientCtx(cloud.RegionAWSHome)
	k.Go("reader", func() {
		t0 := k.Now()
		if _, _, err := s.Read(ctx, "/nope"); err != ErrUserNoNode {
			t.Errorf("read miss = %v, want ErrUserNoNode", err)
		}
		if k.Now() == t0 {
			t.Error("miss should still pay the request latency")
		}
	})
	k.Run()
	k.Shutdown()
}

// TestHybridStoreShrinkDeletesSpill: a node at or below the spill threshold
// stays in the kv table alone, and a node written above it and then
// rewritten below it must drop the stale spill object — otherwise the
// orphan blob leaks storage cost forever and a later grow cycle could
// resurrect stale bytes.
func TestHybridStoreShrinkDeletesSpill(t *testing.T) {
	k := sim.NewKernel(9)
	env := cloud.NewEnv(k, cloud.AWSProfile())
	const threshold = 4096
	s := NewHybridStore(env, "shrink", cloud.RegionAWSHome, threshold)
	hs := s.(*hybridStore)
	ctx := cloud.ClientCtx(cloud.RegionAWSHome)
	k.Go("test", func() {
		if err := s.Write(ctx, NewObject(&znode.Node{Path: "/s", Data: make([]byte, threshold)}, nil)); err != nil {
			t.Fatalf("small write: %v", err)
		}
		if _, had := hs.bucket.Peek("/s"); had {
			t.Error("a node at the threshold spilled to the object store")
		}
		bigData := bytes.Repeat([]byte("b"), threshold+1)
		if err := s.Write(ctx, NewObject(&znode.Node{Path: "/n", Data: bigData}, nil)); err != nil {
			t.Fatalf("big write: %v", err)
		}
		if _, had := hs.bucket.Peek("/n"); !had {
			t.Fatal("above-threshold write should spill to the object store")
		}
		n, _, err := s.Read(ctx, "/n")
		if err != nil || !bytes.Equal(n.Data, bigData) {
			t.Fatalf("big read: %v (len %d)", err, len(n.Data))
		}

		smallData := []byte("small")
		if err := s.Write(ctx, NewObject(&znode.Node{Path: "/n", Data: smallData}, nil)); err != nil {
			t.Fatalf("small rewrite: %v", err)
		}
		if _, had := hs.bucket.Peek("/n"); had {
			t.Error("shrink must delete the stale spill object")
		}
		n, _, err = s.Read(ctx, "/n")
		if err != nil {
			t.Fatalf("read after shrink: %v", err)
		}
		if !bytes.Equal(n.Data, smallData) {
			t.Errorf("read after shrink = %q, want %q", n.Data, smallData)
		}
		if n.Stat.DataLength != int32(len(smallData)) {
			t.Errorf("DataLength = %d, want %d", n.Stat.DataLength, len(smallData))
		}
		if sb := s.StoredBytes(); sb > 2*threshold {
			t.Errorf("StoredBytes = %d still accounts the dropped spill", sb)
		}

		// Grow-shrink-grow keeps working (no tombstone interference).
		if err := s.Write(ctx, NewObject(&znode.Node{Path: "/n", Data: bigData}, nil)); err != nil {
			t.Fatalf("re-grow: %v", err)
		}
		n, _, err = s.Read(ctx, "/n")
		if err != nil || !bytes.Equal(n.Data, bigData) {
			t.Fatalf("read after re-grow: %v (len %d)", err, len(n.Data))
		}

		// Delete removes both halves.
		if err := s.Delete(ctx, "/n"); err != nil {
			t.Fatalf("delete: %v", err)
		}
		if _, had := hs.bucket.Peek("/n"); had {
			t.Error("delete must remove the spill object")
		}
		if _, _, err := s.Read(ctx, "/n"); err != ErrUserNoNode {
			t.Errorf("read after delete = %v, want ErrUserNoNode", err)
		}
	})
	k.Run()
	k.Shutdown()
}

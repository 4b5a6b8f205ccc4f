package object

import (
	"errors"
	"testing"
	"unsafe"

	"faaskeeper/internal/cloud"
	"faaskeeper/internal/sim"
)

func TestPutGetDelete(t *testing.T) {
	k := sim.NewKernel(1)
	env := cloud.NewEnv(k, cloud.AWSProfile())
	b := NewBucket(env, "user-data", cloud.RegionAWSHome)
	ctx := cloud.ClientCtx(cloud.RegionAWSHome)
	k.Go("client", func() {
		buf := []byte("hello")
		b.Put(ctx, "a", buf)
		buf[0] = 'X' // Put copies on the way in: caller may reuse its buffer
		got, err := b.Get(ctx, "a")
		if err != nil || string(got) != "hello" {
			t.Errorf("get: %q %v", got, err)
		}
		got2, _ := b.Get(ctx, "a")
		if string(got2) != "hello" {
			t.Error("stored object aliased caller buffer")
		}
		b.Delete(ctx, "a")
		if _, err := b.Get(ctx, "a"); !errors.Is(err, ErrNoSuchKey) {
			t.Errorf("after delete: %v", err)
		}
		b.Delete(ctx, "a") // idempotent
	})
	k.Run()
	if env.Meter.Count("obj.write") != 3 || env.Meter.Count("obj.read") != 3 {
		t.Fatalf("meter: %v", env.Meter)
	}
	// Writes are 12.5x more expensive than reads (Figure 4a).
	w := env.Meter.Cost("obj.write") / 3
	r := env.Meter.Cost("obj.read") / 3
	if ratio := w / r; ratio < 12 || ratio > 13 {
		t.Fatalf("write/read cost ratio = %v", ratio)
	}
}

// TestMutationAliasing pins the single-copy contract after removing the
// historical double copy (Put and Get each re-copied the payload). Put is
// the one defensive copy per crossing: the caller's buffer never aliases
// the store. Get returns a read-only view, and because overwrites replace
// the whole object rather than mutating in place, a view obtained before
// an overwrite still reads the old bytes.
func TestMutationAliasing(t *testing.T) {
	k := sim.NewKernel(5)
	env := cloud.NewEnv(k, cloud.AWSProfile())
	b := NewBucket(env, "user-data", cloud.RegionAWSHome)
	ctx := cloud.ClientCtx(cloud.RegionAWSHome)
	k.Go("client", func() {
		buf := []byte("first")
		b.Put(ctx, "k", buf)
		copy(buf, "XXXXX") // caller scribbles over its buffer after Put
		got, err := b.Get(ctx, "k")
		if err != nil || string(got) != "first" {
			t.Errorf("stored object aliased caller buffer: %q %v", got, err)
		}
		view := got
		b.Put(ctx, "k", []byte("second"))
		if string(view) != "first" {
			t.Errorf("overwrite mutated a prior view in place: %q", view)
		}
		got2, err := b.Get(ctx, "k")
		if err != nil || string(got2) != "second" {
			t.Errorf("after overwrite: %q %v", got2, err)
		}
	})
	k.Run()
}

// TestPutOwnedKeepsTheBuffer: PutOwned stores the caller's backing array
// itself, where Put stores a copy, and an overwrite through it allocates
// nothing (sim.AllocsPerRun is testing.AllocsPerRun inside a process, which
// the write's latency needs).
func TestPutOwnedKeepsTheBuffer(t *testing.T) {
	k := sim.NewKernel(6)
	env := cloud.NewEnv(k, cloud.AWSProfile())
	b := NewBucket(env, "user-data", cloud.RegionAWSHome)
	ctx := cloud.ClientCtx(cloud.RegionAWSHome)
	owned, copied := []byte("owned"), []byte("copied")
	k.Go("client", func() {
		b.PutOwned(ctx, "o", owned)
		b.Put(ctx, "c", copied)
		if got, _ := b.Get(ctx, "o"); unsafe.SliceData(got) != unsafe.SliceData(owned) {
			t.Error("PutOwned stored a copy of the caller's buffer")
		}
		if got, _ := b.Get(ctx, "c"); unsafe.SliceData(got) == unsafe.SliceData(copied) {
			t.Error("Put stored the caller's buffer")
		}
	})
	k.Run()
	if allocs := sim.AllocsPerRun(k, 100, func() { b.PutOwned(ctx, "o", owned) }); allocs != 0 {
		t.Errorf("PutOwned overwrite: %v allocations, want 0", allocs)
	}
}

func TestCrossRegionPenalty(t *testing.T) {
	k := sim.NewKernel(2)
	env := cloud.NewEnv(k, cloud.AWSProfile())
	b := NewBucket(env, "user-data", cloud.RegionAWSHome)
	data := make([]byte, 100*1024)
	var local, remote sim.Time
	k.Go("client", func() {
		b.Put(cloud.ClientCtx(cloud.RegionAWSHome), "x", data)
		t0 := k.Now()
		for i := 0; i < 10; i++ {
			b.Get(cloud.ClientCtx(cloud.RegionAWSHome), "x")
		}
		local = k.Now() - t0
		t0 = k.Now()
		for i := 0; i < 10; i++ {
			b.Get(cloud.ClientCtx(cloud.RegionAWSRemote), "x")
		}
		remote = k.Now() - t0
	})
	k.Run()
	if float64(remote) < 3*float64(local) {
		t.Fatalf("cross-region read not penalized: local=%v remote=%v", local, remote)
	}
}

func TestLatencyGrowsWithSize(t *testing.T) {
	k := sim.NewKernel(3)
	env := cloud.NewEnv(k, cloud.AWSProfile())
	b := NewBucket(env, "user-data", cloud.RegionAWSHome)
	ctx := cloud.ClientCtx(cloud.RegionAWSHome)
	var small, large sim.Time
	k.Go("client", func() {
		t0 := k.Now()
		for i := 0; i < 20; i++ {
			b.Put(ctx, "s", make([]byte, 1024))
		}
		small = k.Now() - t0
		t0 = k.Now()
		for i := 0; i < 20; i++ {
			b.Put(ctx, "l", make([]byte, 500*1024))
		}
		large = k.Now() - t0
	})
	k.Run()
	if float64(large) < 2*float64(small) {
		t.Fatalf("large writes too fast: %v vs %v", small, large)
	}
}

func TestIOScaleSlowsFunctions(t *testing.T) {
	// A 512 MB sandbox (IOScale < 1) moves data slower than a 2048 MB one.
	k := sim.NewKernel(4)
	env := cloud.NewEnv(k, cloud.AWSProfile())
	b := NewBucket(env, "user-data", cloud.RegionAWSHome)
	data := make([]byte, 250*1024)
	fast := cloud.Ctx{Region: cloud.RegionAWSHome, IOScale: 1, CPUScale: 1}
	slow := cloud.Ctx{Region: cloud.RegionAWSHome, IOScale: 0.625, CPUScale: 1}
	var tFast, tSlow sim.Time
	k.Go("client", func() {
		t0 := k.Now()
		for i := 0; i < 20; i++ {
			b.Put(fast, "x", data)
		}
		tFast = k.Now() - t0
		t0 = k.Now()
		for i := 0; i < 20; i++ {
			b.Put(slow, "x", data)
		}
		tSlow = k.Now() - t0
	})
	k.Run()
	if tSlow <= tFast {
		t.Fatalf("small sandbox not slower: fast=%v slow=%v", tFast, tSlow)
	}
}

func TestTotalSize(t *testing.T) {
	k := sim.NewKernel(1)
	env := cloud.NewEnv(k, cloud.AWSProfile())
	b := NewBucket(env, "user-data", cloud.RegionAWSHome)
	ctx := cloud.ClientCtx(cloud.RegionAWSHome)
	k.Go("client", func() {
		b.Put(ctx, "a", make([]byte, 100))
		b.Put(ctx, "b", make([]byte, 50))
		b.Put(ctx, "a", make([]byte, 10)) // overwrite
	})
	k.Run()
	if b.TotalSize() != 60 || b.Len() != 2 {
		t.Fatalf("size=%d len=%d", b.TotalSize(), b.Len())
	}
	if _, ok := b.Peek("a"); !ok {
		t.Fatal("peek failed")
	}
}

// TestBlobsKeyOwnsItsBytes: a key a caller passes often views a decoded
// message. Blobs stores a new key as a clone and never assigns an existing
// one again (a map assignment stores its key), so the stored key views
// neither caller's bytes.
func TestBlobsKeyOwnsItsBytes(t *testing.T) {
	m := Blobs{}
	first, second := []byte("/path"), []byte("/path")
	m.Put(unsafe.String(&first[0], len(first)), []byte("1"))
	m.Put(unsafe.String(&second[0], len(second)), []byte("2"))
	for k := range m {
		if p := unsafe.StringData(k); p == &first[0] || p == &second[0] {
			t.Errorf("stored key %q views a caller's bytes", k)
		}
	}
	if got, ok := m.Get("/path"); !ok || string(got) != "2" || len(m) != 1 || m.Size() != 1 {
		t.Errorf("Get = %q, %v over %d keys of %d bytes; want \"2\" under one key", got, ok, len(m), m.Size())
	}
}

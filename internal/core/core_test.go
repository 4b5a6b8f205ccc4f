package core

import (
	"errors"
	"slices"
	"strings"
	"testing"
	"time"

	"faaskeeper/internal/cloud"
	"faaskeeper/internal/sim"
	"faaskeeper/internal/znode"
)

func newTestDeployment(seed int64, cfg Config) (*sim.Kernel, *Deployment) {
	k := sim.NewKernel(seed)
	return k, NewDeployment(k, cfg)
}

// TestNodeKeysArePaths: a node's control record is keyed by the node's
// path, and no other system-store key starts with "/", so a node path can
// never name a session, barrier, epoch or lock item.
func TestNodeKeysArePaths(t *testing.T) {
	k, d := newTestDeployment(3, Config{WriteShards: 2})
	others := []string{sessionKey("s"), sessionKey(""), deregKey("s"), deregKey(""), rootUpdateLockKey, deregSeqKey}
	for _, s := range d.Stores {
		others = append(others, d.epochKey(s.Region()))
	}
	for _, key := range others {
		if strings.HasPrefix(key, "/") {
			t.Errorf("key %q is in the node namespace", key)
		}
	}
	r := &pipeRig{t: t, k: k, d: d}
	k.Go("main", func() {
		if resp := r.open("s").do(OpCreate, "/n", "x"); resp.Code != CodeOK {
			t.Errorf("create: %s", resp.Code)
		}
	})
	k.Run()
	k.Shutdown()
	if it, ok := d.System.Peek("/n"); !ok || !decodeSysNode(it, 0).Exists {
		t.Fatalf("no record of /n at its path: %v", it)
	}
}

// TestUserStoreRoundTripAllKinds: every user store writes a small node and
// a large one, reads both back (the small one with its stamp), and deletes
// the small one. The chaos matrix runs every kind but mem, which this test
// keeps covered.
func TestUserStoreRoundTripAllKinds(t *testing.T) {
	for kind, open := range map[StoreKind]func(*cloud.Env) UserStore{
		StoreObject: func(env *cloud.Env) UserStore { return NewObjectStore(env, "u", cloud.RegionAWSHome) },
		StoreKV:     func(env *cloud.Env) UserStore { return NewKVStore(env, "u", cloud.RegionAWSHome) },
		StoreHybrid: func(env *cloud.Env) UserStore { return NewHybridStore(env, "u", cloud.RegionAWSHome, 4096) },
		StoreMem:    func(env *cloud.Env) UserStore { return NewMemStore(env, cloud.RegionAWSHome) },
	} {
		t.Run(string(kind), func(t *testing.T) {
			k := sim.NewKernel(3)
			s, ctx := open(cloud.NewEnv(k, cloud.AWSProfile())), cloud.ClientCtx(cloud.RegionAWSHome)
			k.Go("rt", func() {
				small := &znode.Node{Path: "/small", Data: []byte("hello"), Stat: znode.Stat{Mzxid: 5, Version: 1}, Children: []string{"c1"}}
				big := &znode.Node{Path: "/big", Data: make([]byte, 64*1024), Stat: znode.Stat{Mzxid: 6}}
				if err := errors.Join(s.Write(ctx, NewObject(small, []int64{11})), s.Write(ctx, NewObject(big, nil))); err != nil {
					t.Errorf("write: %v", err)
				}
				if n, stamp, err := s.Read(ctx, "/small"); err != nil || string(n.Data) != "hello" || n.Stat.Mzxid != 5 || !slices.Equal(stamp, []int64{11}) {
					t.Errorf("read small: %+v %v %v", n, stamp, err)
				}
				if n, _, err := s.Read(ctx, "/big"); err != nil || len(n.Data) != 64*1024 || n.Stat.DataLength != 64*1024 {
					t.Errorf("read big: %v", err)
				}
				if err := s.Delete(ctx, "/small"); err != nil {
					t.Errorf("delete: %v", err)
				}
				if _, _, err := s.Read(ctx, "/small"); !errors.Is(err, ErrUserNoNode) {
					t.Errorf("read deleted: %v", err)
				}
			})
			k.Run()
			k.Shutdown()
		})
	}
}

func TestHybridStoreSpillsLargeNodes(t *testing.T) {
	k := sim.NewKernel(4)
	env := cloud.NewEnv(k, cloud.AWSProfile())
	s := NewHybridStore(env, "u", cloud.RegionAWSHome, 4096).(*hybridStore)
	ctx := cloud.ClientCtx(cloud.RegionAWSHome)
	k.Go("rt", func() {
		small := &znode.Node{Path: "/s", Data: make([]byte, 1000)}
		large := &znode.Node{Path: "/l", Data: make([]byte, 10000)}
		s.Write(ctx, NewObject(small, nil))
		s.Write(ctx, NewObject(large, nil))
		if _, spilled := s.bucket.Peek("/s"); spilled {
			t.Error("small node spilled to object store")
		}
		if _, spilled := s.bucket.Peek("/l"); !spilled {
			t.Error("large node not spilled")
		}
		// Shrinking a node must clean its spill object.
		large.Data = make([]byte, 100)
		s.Write(ctx, NewObject(large, nil))
		if _, spilled := s.bucket.Peek("/l"); spilled {
			t.Error("stale spill object after shrink")
		}
		n, _, err := s.Read(ctx, "/l")
		if err != nil || len(n.Data) != 100 {
			t.Errorf("read after shrink: %v len=%d", err, len(n.Data))
		}
	})
	k.Run()
	k.Shutdown()
}

func TestHybridReadLatencySplit(t *testing.T) {
	// Small nodes must be served by one fast KV read; large nodes pay the
	// second object-store request (Section 4.2).
	k := sim.NewKernel(5)
	env := cloud.NewEnv(k, cloud.AWSProfile())
	s := NewHybridStore(env, "u", cloud.RegionAWSHome, 4096)
	ctx := cloud.ClientCtx(cloud.RegionAWSHome)
	var tSmall, tLarge sim.Time
	k.Go("m", func() {
		s.Write(ctx, NewObject(&znode.Node{Path: "/s", Data: make([]byte, 1024)}, nil))
		s.Write(ctx, NewObject(&znode.Node{Path: "/l", Data: make([]byte, 100*1024)}, nil))
		n := 30
		t0 := k.Now()
		for i := 0; i < n; i++ {
			s.Read(ctx, "/s")
		}
		tSmall = (k.Now() - t0) / sim.Time(n)
		t0 = k.Now()
		for i := 0; i < n; i++ {
			s.Read(ctx, "/l")
		}
		tLarge = (k.Now() - t0) / sim.Time(n)
	})
	k.Run()
	k.Shutdown()
	if tLarge < 2*tSmall {
		t.Fatalf("hybrid large read %v not >> small read %v", tLarge, tSmall)
	}
	if tSmall > 10*time.Millisecond {
		t.Fatalf("hybrid small read too slow: %v", tSmall)
	}
}

func TestCacheModeValidation(t *testing.T) {
	// Known modes, the "off" spelling and the frozen bench preset's
	// "two-level" pass and normalize.
	for m, want := range map[CacheMode]CacheMode{
		CacheOff: CacheOff, "off": CacheOff, CacheRegional: CacheRegional, "two-level": CacheRegional,
	} {
		c := Config{CacheMode: m}
		c.defaults()
		if c.CacheMode != want {
			t.Errorf("%q normalized to %q, want %q", m, c.CacheMode, want)
		}
	}
	// A typo must fail loudly instead of silently deploying the wrong tier.
	for _, m := range []CacheMode{"OFF", "none", "twolevel", "two_level"} {
		m := m
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("CacheMode %q accepted, want panic", m)
				}
			}()
			c := Config{CacheMode: m}
			c.defaults()
		}()
	}
}

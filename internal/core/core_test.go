package core

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"faaskeeper/internal/cloud"
	"faaskeeper/internal/sim"
	"faaskeeper/internal/znode"
)

func TestRequestEncodeDecode(t *testing.T) {
	r := Request{
		Session: "s1", Seq: 42, Op: OpCreate, Path: "/a/b",
		Data: []byte{1, 2, 3}, Version: -1, Flags: znode.FlagEphemeral,
	}
	got := roundTripReq(t, r)
	if got.Session != "s1" || got.Seq != 42 || got.Op != OpCreate ||
		got.Path != "/a/b" || !bytes.Equal(got.Data, r.Data) ||
		got.Version != -1 || got.Flags != znode.FlagEphemeral {
		t.Fatalf("round trip: %+v", got)
	}
	if _, err := DecodeRequest([]byte("not json")); err == nil {
		t.Fatal("accepted garbage")
	}
}

func TestLeaderMsgEncodeDecode(t *testing.T) {
	m := leaderMsg{
		Session: "s", Seq: 7, Op: OpSetData, Path: "/x",
		NodeBlob: []byte{9, 9}, ParentPath: "/", ChildAdd: "x",
		LockTs: 123, ParentLockTs: 456, Version: 3, Cversion: 2, EphOwner: "s",
	}
	got := roundTripLM(t, m)
	if got.LockTs != 123 || got.ParentLockTs != 456 || got.Version != 3 ||
		!bytes.Equal(got.NodeBlob, m.NodeBlob) || got.EphOwner != "s" {
		t.Fatalf("round trip: %+v", got)
	}
}

func TestCodeErrorMapping(t *testing.T) {
	cases := []struct {
		code Code
		err  error
	}{
		{CodeOK, nil},
		{CodeNodeExists, ErrNodeExists},
		{CodeNoNode, ErrNoNode},
		{CodeBadVersion, ErrBadVersion},
		{CodeNotEmpty, ErrNotEmpty},
		{CodeNoChildrenEph, ErrNoChildrenEph},
		{CodeTooLarge, ErrTooLarge},
		{CodeSystemError, ErrSystemError},
	}
	for _, c := range cases {
		got := CodeError(c.code)
		if c.err == nil {
			if got != nil {
				t.Errorf("CodeError(%s) = %v", c.code, got)
			}
			continue
		}
		if !errors.Is(got, c.err) {
			t.Errorf("CodeError(%s) = %v, want %v", c.code, got, c.err)
		}
	}
}

func TestWatchIDStableAndDistinct(t *testing.T) {
	a := WatchID("/x", WatchData)
	b := WatchID("/x", WatchData)
	if a != b {
		t.Fatal("WatchID not deterministic")
	}
	if a < 0 {
		t.Fatal("WatchID must be non-negative")
	}
	if WatchID("/x", WatchChild) == a || WatchID("/y", WatchData) == a {
		t.Fatal("WatchID collisions across type/path")
	}
}

func newTestDeployment(seed int64, cfg Config) (*sim.Kernel, *Deployment) {
	k := sim.NewKernel(seed)
	return k, NewDeployment(k, cfg)
}

func TestDeploymentSeedsRoot(t *testing.T) {
	k, d := newTestDeployment(1, Config{})
	ctx := cloud.ClientCtx(d.Cfg.Profile.Home)
	var rootOK bool
	k.Go("check", func() {
		n, _, err := d.PrimaryStore().Read(ctx, znode.Root)
		rootOK = err == nil && n.Path == znode.Root
	})
	k.Run()
	k.Shutdown()
	if !rootOK {
		t.Fatal("root not seeded in user store")
	}
	if it, ok := d.System.Peek(nodeKey(znode.Root)); !ok || it.Get(attrExists).Num != 1 {
		t.Fatal("root not seeded in system store")
	}
}

func userStoreKinds() []StoreKind {
	return []StoreKind{StoreObject, StoreKV, StoreHybrid, StoreMem}
}

func TestUserStoreRoundTripAllKinds(t *testing.T) {
	for _, kind := range userStoreKinds() {
		kind := kind
		t.Run(string(kind), func(t *testing.T) {
			k := sim.NewKernel(3)
			env := cloud.NewEnv(k, cloud.AWSProfile())
			var s UserStore
			switch kind {
			case StoreObject:
				s = NewObjectStore(env, "u", cloud.RegionAWSHome)
			case StoreKV:
				s = NewKVStore(env, "u", cloud.RegionAWSHome)
			case StoreHybrid:
				s = NewHybridStore(env, "u", cloud.RegionAWSHome, 4096)
			case StoreMem:
				s = NewMemStore(env, cloud.RegionAWSHome)
			}
			ctx := cloud.ClientCtx(cloud.RegionAWSHome)
			k.Go("rt", func() {
				small := &znode.Node{Path: "/small", Data: []byte("hello"),
					Stat: znode.Stat{Mzxid: 5, Version: 1}, Children: []string{"c1"}}
				big := &znode.Node{Path: "/big", Data: make([]byte, 64*1024),
					Stat: znode.Stat{Mzxid: 6}}
				if err := s.Write(ctx, small, []int64{11}); err != nil {
					t.Errorf("write small: %v", err)
				}
				if err := s.Write(ctx, big, nil); err != nil {
					t.Errorf("write big: %v", err)
				}
				n, stamp, err := s.Read(ctx, "/small")
				if err != nil || string(n.Data) != "hello" || n.Stat.Mzxid != 5 {
					t.Errorf("read small: %+v %v", n, err)
				}
				if len(stamp) != 1 || stamp[0] != 11 {
					t.Errorf("stamp: %v", stamp)
				}
				nb, _, err := s.Read(ctx, "/big")
				if err != nil || len(nb.Data) != 64*1024 {
					t.Errorf("read big: %v", err)
				}
				if nb.Stat.DataLength != 64*1024 {
					t.Errorf("big DataLength = %d", nb.Stat.DataLength)
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
		s.Write(ctx, small, nil)
		s.Write(ctx, large, nil)
		if _, spilled := s.bucket.Peek("/s"); spilled {
			t.Error("small node spilled to object store")
		}
		if _, spilled := s.bucket.Peek("/l"); !spilled {
			t.Error("large node not spilled")
		}
		// Shrinking a node must clean its spill object.
		large.Data = make([]byte, 100)
		s.Write(ctx, large, nil)
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
		s.Write(ctx, &znode.Node{Path: "/s", Data: make([]byte, 1024)}, nil)
		s.Write(ctx, &znode.Node{Path: "/l", Data: make([]byte, 100*1024)}, nil)
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

func TestRegisterWatchAndEpoch(t *testing.T) {
	k, d := newTestDeployment(6, Config{})
	ctx := cloud.ClientCtx(d.Cfg.Profile.Home)
	var wid int64
	var epoch []int64
	k.Go("w", func() {
		var err error
		wid, err = d.RegisterWatch(ctx, "/cfg", WatchData, "s1")
		if err != nil {
			t.Errorf("register: %v", err)
		}
		epoch, _ = d.Epoch(ctx, d.Cfg.Profile.Home)
	})
	k.Run()
	k.Shutdown()
	if wid != WatchID("/cfg", WatchData) {
		t.Fatalf("wid = %d", wid)
	}
	if len(epoch) != 0 {
		t.Fatalf("epoch should start empty: %v", epoch)
	}
	it, ok := d.System.Peek(watchKey("/cfg"))
	if !ok || len(it.Get(attrWatchData).SL) != 1 || it.Get(attrWatchData).SL[0] != "s1" {
		t.Fatalf("watch item: %v", it)
	}
}

func TestCacheModeValidation(t *testing.T) {
	// Known modes (plus the "off" spelling) pass and normalize.
	for _, m := range []CacheMode{CacheOff, "off", CacheRegional, CacheTwoLevel} {
		c := Config{CacheMode: m}
		c.defaults()
		if m == "off" && c.CacheMode != CacheOff {
			t.Errorf("%q did not normalize to CacheOff", m)
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

package core

import (
	"bytes"
	"errors"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"faaskeeper/internal/cloud"
	"faaskeeper/internal/cloud/kv"
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
		Session: "s", Seq: 7,
		change: change{
			Op: OpSetData, Path: "/x", NodeBlob: []byte{9, 9}, ParentPath: "/", ChildAdd: "x",
			Version: 3, Cversion: 2, EphOwner: "s",
		},
		LockTs: 123, ParentLockTs: 456,
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
		{CodeTxnAborted, ErrTxnAborted},
		{CodeCrossShard, ErrCrossShard},
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
	if it, ok := d.System.Peek("/n"); !ok || !decodeSysNode(it).Exists {
		t.Fatalf("no record of /n at its path: %v", it)
	}
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
	if it, ok := d.System.Peek(znode.Root); !ok || it.Get(attrExists).Num() != 1 {
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
				if err := s.Write(ctx, NewObject(small, []int64{11})); err != nil {
					t.Errorf("write small: %v", err)
				}
				if err := s.Write(ctx, NewObject(big, nil)); err != nil {
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

// TestRegisterWatchAndEpoch: a registration is one write on the node's own
// control record, and its frontier is what that record held: mzxid, or
// pzxid for a child watch, and whether the node existed.
func TestRegisterWatchAndEpoch(t *testing.T) {
	k, d := newTestDeployment(6, Config{})
	ctx := cloud.ClientCtx(d.Cfg.Profile.Home)
	var wid int64
	var missing, data, child Frontier
	var epoch []int64
	var writes int64
	k.Go("w", func() {
		var err error
		if wid, missing, err = d.RegisterWatch(ctx, "/cfg", WatchData, "s1"); err != nil {
			t.Errorf("register: %v", err)
		}
		d.System.SeedPut("/n", kv.Item{
			{Name: attrExists, V: kv.N(1)}, {Name: attrMzxid, V: kv.N(7)}, {Name: attrPzxid, V: kv.N(9)},
		})
		w0 := d.Env.Meter.Count("syskv.write")
		_, data, _ = d.RegisterWatch(ctx, "/n", WatchData, "s1")
		_, child, _ = d.RegisterWatch(ctx, "/n", WatchChild, "s2")
		writes = d.Env.Meter.Count("syskv.write") - w0
		epoch = d.Epoch(ctx, d.Cfg.Profile.Home)
	})
	k.Run()
	k.Shutdown()
	if wid != WatchID("/cfg", WatchData) {
		t.Fatalf("wid = %d", wid)
	}
	if len(epoch) != 0 {
		t.Fatalf("epoch should start empty: %v", epoch)
	}
	if want := (Frontier{}); !reflect.DeepEqual(missing, want) {
		t.Errorf("frontier on a missing node %+v, want %+v", missing, want)
	}
	if want := (Frontier{Zxid: 7, Exists: true}); !reflect.DeepEqual(data, want) {
		t.Errorf("data watch frontier %+v, want %+v", data, want)
	}
	if want := (Frontier{Zxid: 9, Exists: true}); !reflect.DeepEqual(child, want) {
		t.Errorf("child watch frontier %+v, want %+v", child, want)
	}
	if writes != 2 {
		t.Errorf("two registrations made %d system-store writes, want one each", writes)
	}
	it, ok := d.System.Peek("/cfg")
	if !ok || !slices.Equal(decodeSysNode(it).Watches[WatchData-1], []string{"s1"}) {
		t.Fatalf("control record: %v", it)
	}
	it, _ = d.System.Peek("/n")
	if w := decodeSysNode(it).Watches; !slices.Equal(w[WatchData-1], []string{"s1"}) || !slices.Equal(w[WatchChild-1], []string{"s2"}) {
		t.Fatalf("control record: %v", it)
	}
}

// TestClaimGroupFiresOnceAndWipesNothingUnread: two shard leaders claim the
// root's child-watch group from the same read of it, [a], while session b
// registers in between. One claim wins [a]; the other, its condition
// failed, re-reads and claims only b's registration, which a remove of the
// whole group would have wiped unread. Nobody's session is claimed twice.
func TestClaimGroupFiresOnceAndWipesNothingUnread(t *testing.T) {
	k, d := newTestDeployment(6, Config{WriteShards: 2})
	ctx := cloud.ClientCtx(d.Cfg.Profile.Home)
	key := znode.Root
	var claims [2][]string
	var left []string
	k.Go("main", func() {
		if _, _, err := d.RegisterWatch(ctx, znode.Root, WatchChild, "a"); err != nil {
			t.Errorf("register a: %v", err)
		}
		it, _ := d.System.GetView(ctx, key, true)
		read := it.Get(attrWatchChild).SL()
		wg := sim.NewWaitGroup(k)
		for i := range claims {
			wg.Add(1)
			k.Go("claim", func() {
				defer wg.Done()
				claims[i] = d.claimGroup(ctx, key, attrWatchChild, read)
			})
		}
		if _, _, err := d.RegisterWatch(ctx, znode.Root, WatchChild, "b"); err != nil {
			t.Errorf("register b: %v", err)
		}
		wg.Wait()
		it, _ = d.System.GetView(ctx, key, true)
		left = it.Get(attrWatchChild).SL()
	})
	k.Run()
	k.Shutdown()
	all := append(slices.Clone(claims[0]), claims[1]...)
	slices.Sort(all)
	if !slices.Equal(all, []string{"a", "b"}) || len(left) != 0 {
		t.Errorf("claims %v and %v, %v left in the group: want a and b claimed once each, nothing left", claims[0], claims[1], left)
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

package fkclient

// Tests of the read-path cache tier as seen through the client library:
// the session guards (per-path last-seen floor, shard MRD, Z4 stamps) must
// keep every ZooKeeper guarantee intact while the caches absorb reads.

import (
	"errors"
	"fmt"
	"slices"
	"testing"
	"time"

	"faaskeeper/internal/core"
	"faaskeeper/internal/sim"
)

func cachedCfg() core.Config {
	return core.Config{UserStore: core.StoreKV, CacheMode: core.CacheTwoLevel}
}

// runCached builds a two-level-cache deployment and runs fn as a driver.
func runCached(t *testing.T, seed int64, cfg core.Config, fn func(k *sim.Kernel, d *core.Deployment)) {
	t.Helper()
	k := sim.NewKernel(seed)
	d := core.NewDeployment(k, cfg)
	k.Go("driver", func() { fn(k, d) })
	k.Run()
	k.Shutdown()
}

// TestCacheServesRepeatedReads: the second identical read must come from a
// cache level, not the store.
func TestCacheServesRepeatedReads(t *testing.T) {
	runCached(t, 1, cachedCfg(), func(k *sim.Kernel, d *core.Deployment) {
		c, err := Connect(d, "s", d.Cfg.Profile.Home)
		if err != nil {
			t.Fatalf("connect: %v", err)
		}
		defer c.Close()
		if _, err := c.Create("/x", []byte("v"), 0); err != nil {
			t.Fatalf("create: %v", err)
		}
		for i := 0; i < 3; i++ {
			if _, _, err := c.GetData("/x"); err != nil {
				t.Fatalf("read %d: %v", i, err)
			}
		}
		l1, l2, misses := c.CacheStats()
		if misses != 1 {
			t.Errorf("misses = %d, want exactly the first read", misses)
		}
		if l1+l2 != 2 {
			t.Errorf("cache hits = %d (l1=%d l2=%d), want 2", l1+l2, l1, l2)
		}
	})
}

// TestCacheStaleEpochRejection: once a delivered notification raises the
// session's shard MRD, a cached entry older than the MRD must miss — a
// single ZooKeeper server that has applied the notifying transaction would
// never answer from an older state.
func TestCacheStaleEpochRejection(t *testing.T) {
	runCached(t, 2, cachedCfg(), func(k *sim.Kernel, d *core.Deployment) {
		a, err := Connect(d, "a", d.Cfg.Profile.Home)
		if err != nil {
			t.Fatalf("connect a: %v", err)
		}
		defer a.Close()
		b, err := Connect(d, "b", d.Cfg.Profile.Home)
		if err != nil {
			t.Fatalf("connect b: %v", err)
		}
		defer b.Close()
		if _, err := a.Create("/cold", []byte("old"), 0); err != nil {
			t.Fatalf("create cold: %v", err)
		}
		if _, err := a.Create("/hot", []byte("h0"), 0); err != nil {
			t.Fatalf("create hot: %v", err)
		}
		// Warm a's caches for /cold and leave a data watch on /hot.
		fired := false
		if _, _, err := a.GetDataW("/hot", func(core.Notification) { fired = true }); err != nil {
			t.Fatalf("watch hot: %v", err)
		}
		if _, _, err := a.GetData("/cold"); err != nil {
			t.Fatalf("read cold: %v", err)
		}
		if _, _, err := a.GetData("/cold"); err != nil {
			t.Fatalf("read cold: %v", err)
		}
		_, _, missesBefore := a.CacheStats()
		mrdBefore := a.MRD()
		// b's write fires a's watch; the delivered notification raises
		// a's MRD above /cold's cached mzxid.
		if _, err := b.SetData("/hot", []byte("h1"), -1); err != nil {
			t.Fatalf("write hot: %v", err)
		}
		k.Sleep(5 * time.Second)
		if !fired {
			t.Fatal("watch notification not delivered")
		}
		if a.MRD() <= mrdBefore {
			t.Fatalf("MRD did not advance: %d", a.MRD())
		}
		data, _, err := a.GetData("/cold")
		if err != nil {
			t.Fatalf("read cold after MRD advance: %v", err)
		}
		if string(data) != "old" {
			t.Fatalf("cold data corrupted: %q", data)
		}
		if _, _, misses := a.CacheStats(); misses != missesBefore+1 {
			t.Errorf("cached /cold (older than the shard MRD) must miss: misses %d -> %d",
				missesBefore, misses)
		}
	})
}

// TestCacheReadYourWrites: a session's own committed write must be visible
// through the cache tier immediately (the response raises the per-path
// last-seen floor above the cached copy).
func TestCacheReadYourWrites(t *testing.T) {
	runCached(t, 3, cachedCfg(), func(k *sim.Kernel, d *core.Deployment) {
		c, err := Connect(d, "s", d.Cfg.Profile.Home)
		if err != nil {
			t.Fatalf("connect: %v", err)
		}
		defer c.Close()
		if _, err := c.Create("/n", []byte("v0"), 0); err != nil {
			t.Fatalf("create: %v", err)
		}
		for i := 1; i <= 5; i++ {
			// Cache the current version, overwrite it, read it back.
			if _, _, err := c.GetData("/n"); err != nil {
				t.Fatalf("warm read %d: %v", i, err)
			}
			want := fmt.Sprintf("v%d", i)
			if _, err := c.SetData("/n", []byte(want), -1); err != nil {
				t.Fatalf("write %d: %v", i, err)
			}
			data, st, err := c.GetData("/n")
			if err != nil {
				t.Fatalf("read %d: %v", i, err)
			}
			if string(data) != want {
				t.Fatalf("read-your-writes violated: got %q, want %q", data, want)
			}
			if st.Version != int32(i) {
				t.Fatalf("version = %d, want %d", st.Version, i)
			}
		}
	})
}

// TestCacheCreateDeleteChildrenVisible: the parent's cached child list is
// refreshed after the session's own create and delete (the response also
// raises the parent's floor — a child change rewrites the parent object
// without touching the parent's mzxid).
func TestCacheCreateDeleteChildrenVisible(t *testing.T) {
	runCached(t, 4, cachedCfg(), func(k *sim.Kernel, d *core.Deployment) {
		c, err := Connect(d, "s", d.Cfg.Profile.Home)
		if err != nil {
			t.Fatalf("connect: %v", err)
		}
		defer c.Close()
		if _, err := c.Create("/p", nil, 0); err != nil {
			t.Fatalf("create parent: %v", err)
		}
		if kids, err := c.GetChildren("/p"); err != nil || len(kids) != 0 {
			t.Fatalf("initial children: %v %v", kids, err)
		}
		if _, err := c.Create("/p/c", []byte("x"), 0); err != nil {
			t.Fatalf("create child: %v", err)
		}
		kids, err := c.GetChildren("/p")
		if err != nil || len(kids) != 1 || kids[0] != "c" {
			t.Fatalf("children after create = %v (%v), want [c]", kids, err)
		}
		if err := c.Delete("/p/c", -1); err != nil {
			t.Fatalf("delete child: %v", err)
		}
		if kids, err := c.GetChildren("/p"); err != nil || len(kids) != 0 {
			t.Fatalf("children after delete = %v (%v), want []", kids, err)
		}
	})
}

// TestCacheDeletedNodeNotServed: a session that deleted a node must not be
// served its cached copy afterwards.
func TestCacheDeletedNodeNotServed(t *testing.T) {
	runCached(t, 5, cachedCfg(), func(k *sim.Kernel, d *core.Deployment) {
		c, err := Connect(d, "s", d.Cfg.Profile.Home)
		if err != nil {
			t.Fatalf("connect: %v", err)
		}
		defer c.Close()
		if _, err := c.Create("/gone", []byte("x"), 0); err != nil {
			t.Fatalf("create: %v", err)
		}
		if _, _, err := c.GetData("/gone"); err != nil {
			t.Fatalf("warm read: %v", err)
		}
		if err := c.Delete("/gone", -1); err != nil {
			t.Fatalf("delete: %v", err)
		}
		if _, _, err := c.GetData("/gone"); !errors.Is(err, core.ErrNoNode) {
			t.Fatalf("read after delete = %v, want ErrNoNode", err)
		}
	})
}

// TestCacheSingleSystemImageAcrossPaths: once a session observes system
// state at some transaction, a read of ANY path must not return a version
// superseded by an earlier transaction on the same shard — the client
// cache carries the session-wide sysFloor precisely because nothing
// push-invalidates session-local copies.
func TestCacheSingleSystemImageAcrossPaths(t *testing.T) {
	runCached(t, 8, cachedCfg(), func(k *sim.Kernel, d *core.Deployment) {
		w, err := Connect(d, "w", d.Cfg.Profile.Home)
		if err != nil {
			t.Fatalf("connect w: %v", err)
		}
		defer w.Close()
		r, err := Connect(d, "r", d.Cfg.Profile.Home)
		if err != nil {
			t.Fatalf("connect r: %v", err)
		}
		defer r.Close()
		if _, err := w.Create("/b", []byte("b0"), 0); err != nil {
			t.Fatalf("create /b: %v", err)
		}
		if _, err := w.Create("/a", []byte("a0"), 0); err != nil {
			t.Fatalf("create /a: %v", err)
		}
		// The reader caches /b's old version locally.
		if _, _, err := r.GetData("/b"); err != nil {
			t.Fatalf("warm read /b: %v", err)
		}
		// Another session advances the system: /b first, /a after.
		if _, err := w.SetData("/b", []byte("b1"), -1); err != nil {
			t.Fatalf("write /b: %v", err)
		}
		if _, err := w.SetData("/a", []byte("a1"), -1); err != nil {
			t.Fatalf("write /a: %v", err)
		}
		k.Sleep(time.Second)
		// Observing /a's update commits the reader to a system state that
		// already includes /b's earlier overwrite...
		if data, _, err := r.GetData("/a"); err != nil || string(data) != "a1" {
			t.Fatalf("read /a = %q (%v), want a1", data, err)
		}
		// ...so the locally cached /b@b0 must not be served, well inside
		// its TTL or not.
		data, _, err := r.GetData("/b")
		if err != nil {
			t.Fatalf("read /b: %v", err)
		}
		if string(data) != "b1" {
			t.Fatalf("single system image violated: read /b = %q after observing the later /a update, want b1", data)
		}
	})
}

// TestCacheSingleSystemImageViaPzxid: observing a parent's child list
// also advances the session's view of system state (through pzxid, not
// mzxid — a child splice rewrites the parent without touching its own
// modification txid), so an older cached copy of an unrelated node must
// stop being served after it.
func TestCacheSingleSystemImageViaPzxid(t *testing.T) {
	runCached(t, 10, cachedCfg(), func(k *sim.Kernel, d *core.Deployment) {
		w, err := Connect(d, "w", d.Cfg.Profile.Home)
		if err != nil {
			t.Fatalf("connect w: %v", err)
		}
		defer w.Close()
		r, err := Connect(d, "r", d.Cfg.Profile.Home)
		if err != nil {
			t.Fatalf("connect r: %v", err)
		}
		defer r.Close()
		if _, err := w.Create("/p", nil, 0); err != nil {
			t.Fatalf("create /p: %v", err)
		}
		if _, err := w.Create("/c", []byte("c0"), 0); err != nil {
			t.Fatalf("create /c: %v", err)
		}
		if _, _, err := r.GetData("/c"); err != nil {
			t.Fatalf("warm read /c: %v", err)
		}
		// /c is overwritten BEFORE the child create, so any state that
		// includes child k also includes c1.
		if _, err := w.SetData("/c", []byte("c1"), -1); err != nil {
			t.Fatalf("write /c: %v", err)
		}
		if _, err := w.Create("/p/k", nil, 0); err != nil {
			t.Fatalf("create /p/k: %v", err)
		}
		k.Sleep(time.Second)
		kids, err := r.GetChildren("/p")
		if err != nil || !slices.Contains(kids, "k") {
			t.Fatalf("children = %v (%v), want k visible", kids, err)
		}
		data, _, err := r.GetData("/c")
		if err != nil {
			t.Fatalf("read /c: %v", err)
		}
		if string(data) != "c1" {
			t.Fatalf("single system image violated via pzxid: read /c = %q after observing /p/k, want c1", data)
		}
	})
}

// TestCacheWatchReadBypassesClientCache: a read that arms a watch must
// not be served a session-local copy older than the registration — the
// change between that copy and the registration would never fire the
// watch, so the canonical read-then-wait-on-watch pattern would hold the
// stale value indefinitely. The data returned with the armed watch must
// be the committed state as of registration.
func TestCacheWatchReadBypassesClientCache(t *testing.T) {
	runCached(t, 9, cachedCfg(), func(k *sim.Kernel, d *core.Deployment) {
		w, err := Connect(d, "w", d.Cfg.Profile.Home)
		if err != nil {
			t.Fatalf("connect w: %v", err)
		}
		defer w.Close()
		r, err := Connect(d, "r", d.Cfg.Profile.Home)
		if err != nil {
			t.Fatalf("connect r: %v", err)
		}
		defer r.Close()
		if _, err := w.Create("/config", []byte("v0"), 0); err != nil {
			t.Fatalf("create: %v", err)
		}
		// r holds /config@v0 in its client cache.
		if _, _, err := r.GetData("/config"); err != nil {
			t.Fatalf("warm read: %v", err)
		}
		// v1 commits without r noticing (no watch armed yet).
		if _, err := w.SetData("/config", []byte("v1"), -1); err != nil {
			t.Fatalf("write v1: %v", err)
		}
		k.Sleep(time.Second) // well inside the 5 s client-cache TTL
		fired := false
		data, _, err := r.GetDataW("/config", func(core.Notification) { fired = true })
		if err != nil {
			t.Fatalf("watch read: %v", err)
		}
		if string(data) != "v1" {
			t.Fatalf("watch read returned %q, want the state as of registration (v1)", data)
		}
		// The armed watch still fires on the next change.
		if _, err := w.SetData("/config", []byte("v2"), -1); err != nil {
			t.Fatalf("write v2: %v", err)
		}
		k.Sleep(5 * time.Second)
		if !fired {
			t.Error("watch armed by the bypassing read did not fire")
		}
	})
}

// TestCacheTTLBoundsStaleness: a read-only session with no watches sees
// another session's write once its client-cache TTL expires (ZooKeeper's
// timeliness guarantee) — the regional node was push-invalidated, only the
// session-local copy could linger.
func TestCacheTTLBoundsStaleness(t *testing.T) {
	runCached(t, 6, cachedCfg(), func(k *sim.Kernel, d *core.Deployment) {
		w, err := Connect(d, "w", d.Cfg.Profile.Home)
		if err != nil {
			t.Fatalf("connect w: %v", err)
		}
		defer w.Close()
		r, err := Connect(d, "r", d.Cfg.Profile.Home)
		if err != nil {
			t.Fatalf("connect r: %v", err)
		}
		defer r.Close()
		if _, err := w.Create("/t", []byte("v0"), 0); err != nil {
			t.Fatalf("create: %v", err)
		}
		if _, _, err := r.GetData("/t"); err != nil {
			t.Fatalf("warm read: %v", err)
		}
		if _, err := w.SetData("/t", []byte("v1"), -1); err != nil {
			t.Fatalf("write: %v", err)
		}
		k.Sleep(core.CacheTTL + time.Second) // beyond the TTL and the distribution
		data, _, err := r.GetData("/t")
		if err != nil {
			t.Fatalf("read after TTL: %v", err)
		}
		if string(data) != "v1" {
			t.Fatalf("TTL-expired read returned %q, want v1", data)
		}
	})
}

// TestCacheShardedRootChildrenVisible: top-level creates on a sharded
// deployment rebuild the shared root from several shard leaders, possibly
// out of txid order — two different root contents can share one freshness
// value. Every creator must still see its own child through the cache
// tier, and a fresh session must see all of them (the regional node's
// strictly-raised invalidation floor fences superseded root copies).
func TestCacheShardedRootChildrenVisible(t *testing.T) {
	for _, seed := range []int64{21, 22, 23} {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			cfg := cachedCfg()
			cfg.WriteShards = 4
			runCached(t, seed, cfg, func(k *sim.Kernel, d *core.Deployment) {
				const writers = 4
				clients := make([]*Client, writers)
				for i := range clients {
					c, err := Connect(d, fmt.Sprintf("w%d", i), d.Cfg.Profile.Home)
					if err != nil {
						t.Fatalf("connect %d: %v", i, err)
					}
					clients[i] = c
					// Warm each session's root copy so the race has a
					// cached victim to serve.
					if _, err := c.GetChildren("/"); err != nil {
						t.Fatalf("warm root read %d: %v", i, err)
					}
				}
				wg := sim.NewWaitGroup(k)
				for i := range clients {
					i := i
					wg.Add(1)
					k.Go(fmt.Sprintf("creator-%d", i), func() {
						defer wg.Done()
						if _, err := clients[i].Create(fmt.Sprintf("/top%d", i), nil, 0); err != nil {
							t.Errorf("create %d: %v", i, err)
							return
						}
						kids, err := clients[i].GetChildren("/")
						if err != nil {
							t.Errorf("children %d: %v", i, err)
							return
						}
						if !slices.Contains(kids, fmt.Sprintf("top%d", i)) {
							t.Errorf("creator %d does not see its own top-level node in %v", i, kids)
						}
					})
				}
				wg.Wait()
				fresh, err := Connect(d, "fresh", d.Cfg.Profile.Home)
				if err != nil {
					t.Fatalf("connect fresh: %v", err)
				}
				kids, err := fresh.GetChildren("/")
				if err != nil {
					t.Fatalf("fresh children: %v", err)
				}
				for i := 0; i < writers; i++ {
					if !slices.Contains(kids, fmt.Sprintf("top%d", i)) {
						t.Errorf("fresh session misses top%d in %v", i, kids)
					}
				}
				fresh.Close()
				for _, c := range clients {
					c.Close()
				}
			})
		})
	}
}

// TestCacheShardedRootReadYourWritesLowTxid pins the low-txid variant of
// the shared-root race: a session caches the root at a pzxid minted by
// another shard's HIGH txid, then its own top-level create lands on a
// lightly-loaded shard with a LOWER txid. No floor derived from that txid
// can fence the cached copy (cross-shard txids carry no order), so the
// client must drop the parent's local copy on its own create/delete.
func TestCacheShardedRootReadYourWritesLowTxid(t *testing.T) {
	cfg := cachedCfg()
	cfg.WriteShards = 4
	runCached(t, 31, cfg, func(k *sim.Kernel, d *core.Deployment) {
		// Computed shard-specific top-level names (never hard-coded).
		nameOn := func(shard, skip int) string {
			for i := 0; ; i++ {
				p := fmt.Sprintf("/ryw%d", i)
				if core.ShardOf(p, 4) == shard {
					if skip == 0 {
						return p
					}
					skip--
				}
			}
		}
		w, err := Connect(d, "w", d.Cfg.Profile.Home)
		if err != nil {
			t.Fatalf("connect w: %v", err)
		}
		defer w.Close()
		s, err := Connect(d, "s", d.Cfg.Profile.Home)
		if err != nil {
			t.Fatalf("connect s: %v", err)
		}
		defer s.Close()
		// Inflate shard 1's txids with several creates; shard 0's leader
		// queue stays untouched, so its next txid is small.
		for i := 0; i < 4; i++ {
			if _, err := w.Create(nameOn(1, i), nil, 0); err != nil {
				t.Fatalf("create on busy shard: %v", err)
			}
		}
		// The session caches the root at the busy shard's high pzxid.
		if _, err := s.GetChildren("/"); err != nil {
			t.Fatalf("warm root read: %v", err)
		}
		// Its own create routes to idle shard 0 and mints a lower txid.
		own := nameOn(0, 0)
		if _, err := s.Create(own, nil, 0); err != nil {
			t.Fatalf("own create: %v", err)
		}
		kids, err := s.GetChildren("/")
		if err != nil {
			t.Fatalf("children after own create: %v", err)
		}
		if !slices.Contains(kids, own[1:]) {
			t.Fatalf("read-your-writes violated: own top-level node %s missing from %v", own, kids)
		}
		// Same for the session's own delete.
		if err := s.Delete(own, -1); err != nil {
			t.Fatalf("own delete: %v", err)
		}
		if kids, err := s.GetChildren("/"); err != nil || slices.Contains(kids, own[1:]) {
			t.Fatalf("own deleted node still listed: %v (%v)", kids, err)
		}
	})
}

// TestConsistencyWithCacheTier: the randomized multi-client histories of
// the consistency suite — including the inline Z3 checks — must hold
// verbatim with the cache tier enabled, in both modes, with and without
// write sharding.
func TestConsistencyWithCacheTier(t *testing.T) {
	cases := []struct {
		name string
		cfg  core.Config
	}{
		{"regional", core.Config{UserStore: core.StoreKV, CacheMode: core.CacheRegional}},
		{"two-level", core.Config{UserStore: core.StoreKV, CacheMode: core.CacheTwoLevel}},
		{"two-level-sharded", core.Config{UserStore: core.StoreKV, CacheMode: core.CacheTwoLevel, WriteShards: 4}},
		{"two-level-object-store", core.Config{CacheMode: core.CacheTwoLevel}},
		{"tiny-caches", core.Config{
			UserStore: core.StoreKV, CacheMode: core.CacheTwoLevel,
			CacheCapacityB: 2 << 10, ClientCacheCapacityB: 1 << 10,
		}},
	}
	for i, tc := range cases {
		tc, i := tc, i
		t.Run(tc.name, func(t *testing.T) {
			obs, d := randomHistory(t, 404+int64(i)*17, tc.cfg, 4, 12)
			if tc.cfg.WriteShards <= 1 {
				// Z2's global txid comparison does not apply across
				// shards (txids are only totally ordered within one, see
				// TestShardedRandomizedHistories).
				verifyZ2(t, obs)
			}
			verifyTreeIntegrity(t, d)
		})
	}
}

package cache

import (
	"fmt"
	"testing"

	"faaskeeper/internal/cloud"
	"faaskeeper/internal/sim"
)

// withRegional runs fn as a sim process against a fresh regional cache.
func withRegional(t *testing.T, capB int, fn func(k *sim.Kernel, ctx cloud.Ctx, r *Regional)) {
	t.Helper()
	k := sim.NewKernel(11)
	env := cloud.NewEnv(k, cloud.AWSProfile())
	r := NewRegional(env, cloud.RegionAWSHome, capB)
	ctx := cloud.ClientCtx(cloud.RegionAWSHome)
	k.Go("test", func() { fn(k, ctx, r) })
	k.Run()
	k.Shutdown()
}

func TestRegionalFillLookupInvalidate(t *testing.T) {
	withRegional(t, 1<<20, func(k *sim.Kernel, ctx cloud.Ctx, r *Regional) {
		if _, _, ok := r.Lookup(ctx, "/a"); ok {
			t.Error("empty cache should miss")
		}
		if !r.Fill(ctx, "/a", blob(64), 10) {
			t.Fatal("first fill rejected")
		}
		b, mzxid, ok := r.Lookup(ctx, "/a")
		if !ok || mzxid != 10 || len(b) != 64 {
			t.Fatalf("lookup after fill: ok=%v mzxid=%d len=%d", ok, mzxid, len(b))
		}
		r.InvalidateBatch(ctx, []Invalidation{{Path: "/a", Mzxid: 20, Epoch: []int64{5, 6}}})
		if _, _, ok := r.Lookup(ctx, "/a"); ok {
			t.Error("invalidated entry still served")
		}
		floor, epoch := r.Floor("/a")
		if floor != 20 || len(epoch) != 2 {
			t.Errorf("floor = %d epoch %v, want 20 [5 6]", floor, epoch)
		}
		st := r.Stats()
		if st.Hits != 1 || st.Misses != 2 || st.Invalidations != 1 {
			t.Errorf("stats off: %+v", st)
		}
	})
}

func TestRegionalStaleFillRejectedByFloor(t *testing.T) {
	withRegional(t, 1<<20, func(k *sim.Kernel, ctx cloud.Ctx, r *Regional) {
		// The overwrite's invalidation lands before a reader — who
		// fetched the pre-overwrite value from the store — tries to fill.
		r.InvalidateBatch(ctx, []Invalidation{{Path: "/n", Mzxid: 50}})
		if r.Fill(ctx, "/n", blob(32), 40) {
			t.Error("fill below the invalidation floor must be rejected")
		}
		if _, _, ok := r.Lookup(ctx, "/n"); ok {
			t.Error("rejected fill must not be readable")
		}
		// The post-overwrite value passes.
		if !r.Fill(ctx, "/n", blob(32), 50) {
			t.Error("fill at the floor must be accepted")
		}
		if r.Stats().RejectedFills != 1 {
			t.Errorf("rejected fills = %d, want 1", r.Stats().RejectedFills)
		}
	})
}

func TestRegionalOlderFillLosesToNewerEntry(t *testing.T) {
	withRegional(t, 1<<20, func(k *sim.Kernel, ctx cloud.Ctx, r *Regional) {
		if !r.Fill(ctx, "/r", blob(16), 100) {
			t.Fatal("fill rejected")
		}
		// A late fill of an older version loses.
		if r.Fill(ctx, "/r", blob(16), 90) {
			t.Error("older fill must not replace a newer entry")
		}
		if _, mzxid, ok := r.Lookup(ctx, "/r"); !ok || mzxid != 100 {
			t.Errorf("newer entry lost to an older fill: ok=%v mzxid=%d", ok, mzxid)
		}
	})
}

// TestRegionalSharedRootOutOfOrderInvalidation pins the shared-root race:
// two shard leaders rebuild the root under the lock in the opposite of
// txid order, so two DIFFERENT root contents share one freshness value
// (pzxid only rises). The second rebuild's lower-txid invalidation must
// still fence the first rebuild's cached copy — and any in-flight fill of
// it — even though mzxid comparison cannot tell the versions apart.
func TestRegionalSharedRootOutOfOrderInvalidation(t *testing.T) {
	withRegional(t, 1<<20, func(k *sim.Kernel, ctx cloud.Ctx, r *Regional) {
		const txC, txD = 7, 10 // shard B commits C, shard A commits D first
		// Shard A's rebuild (txid D) lands first: invalidate, write, and a
		// reader caches the root at freshness D — without shard B's child.
		r.InvalidateBatch(ctx, []Invalidation{{Path: "/", Mzxid: txD}})
		if !r.Fill(ctx, "/", blob(20), txD) {
			t.Fatal("fill of the first rebuild rejected")
		}
		// Shard B's rebuild (txid C < D) runs second: its content
		// supersedes the cached copy, its freshness is still D.
		r.InvalidateBatch(ctx, []Invalidation{{Path: "/", Mzxid: txC}})
		if _, _, ok := r.Lookup(ctx, "/"); ok {
			t.Error("superseded root copy survived the out-of-order invalidation")
		}
		// A delayed fill of the pre-rebuild value (same freshness D) must
		// be fenced too.
		if r.Fill(ctx, "/", blob(20), txD) {
			t.Error("in-flight fill of the superseded root must be rejected")
		}
		// The root regains cacheability at its next higher-txid change.
		r.InvalidateBatch(ctx, []Invalidation{{Path: "/", Mzxid: txD + 5}})
		if !r.Fill(ctx, "/", blob(20), txD+5) {
			t.Error("fill of a genuinely newer root rejected")
		}
	})
}

// TestFloorCompaction: overflowing the watermark map folds the older half
// into the global floor — the map stays bounded, folded paths stay fenced
// (over-missing, never stale), and recent paths keep exact floors.
func TestFloorCompaction(t *testing.T) {
	withRegional(t, 1<<20, func(k *sim.Kernel, ctx cloud.Ctx, r *Regional) {
		r.floorCap = 4
		const paths = 8
		for i := 0; i < paths; i++ {
			r.InvalidateBatch(ctx, []Invalidation{{Path: fmt.Sprintf("/n%d", i), Mzxid: int64(100 + i)}})
		}
		if len(r.floors) > r.floorCap {
			t.Errorf("floors map not bounded: %d > cap %d", len(r.floors), r.floorCap)
		}
		// A folded path is fenced at the global fold floor: a fill of the
		// version its invalidation superseded must still be rejected.
		if r.Fill(ctx, "/n0", blob(8), 99) {
			t.Error("stale fill slipped under a folded watermark")
		}
		// A recent path keeps its exact floor and accepts current fills.
		if f, _ := r.Floor(fmt.Sprintf("/n%d", paths-1)); f != int64(100+paths-1) {
			t.Errorf("recent floor = %d, want %d", f, 100+paths-1)
		}
		if !r.Fill(ctx, fmt.Sprintf("/n%d", paths-1), blob(8), int64(100+paths-1)) {
			t.Error("current fill of a recent path rejected")
		}
		// Writes newer than the fold point restore cacheability of folded
		// paths.
		if !r.Fill(ctx, "/n0", blob(8), 500) {
			t.Error("genuinely newer fill of a folded path rejected")
		}
	})
}

// TestInvalidationOrderingUnderConcurrentShardWrites models two shard
// leaders racing their distribution phases: each publishes invalidations
// for its own paths in its shard's txid order while readers keep
// re-filling stale copies. Whatever the interleaving, every path's floor
// must end at its newest invalidation and no entry below the floor may
// survive.
func TestInvalidationOrderingUnderConcurrentShardWrites(t *testing.T) {
	k := sim.NewKernel(23)
	env := cloud.NewEnv(k, cloud.AWSProfile())
	r := NewRegional(env, cloud.RegionAWSHome, 1<<20)
	ctx := cloud.ClientCtx(cloud.RegionAWSHome)
	const nShards, writesPerShard = 2, 8
	newest := map[string]int64{}
	wg := sim.NewWaitGroup(k)
	for shard := 0; shard < nShards; shard++ {
		shard := shard
		path := fmt.Sprintf("/shard%d/node", shard)
		// Shard-encoded txids as the write pipeline mints them:
		// seqNo*nShards + shard, strictly increasing within the shard.
		for seq := int64(1); seq <= writesPerShard; seq++ {
			txid := seq*nShards + int64(shard)
			if txid > newest[path] {
				newest[path] = txid
			}
		}
		wg.Add(1)
		k.Go(fmt.Sprintf("leader-%d", shard), func() {
			defer wg.Done()
			for seq := int64(1); seq <= writesPerShard; seq++ {
				txid := seq*nShards + int64(shard)
				r.InvalidateBatch(ctx, []Invalidation{{Path: path, Mzxid: txid, Epoch: []int64{txid}}})
				// A racing reader re-fills the version this write just
				// overwrote; the floor must reject it.
				r.Fill(ctx, path, blob(24), txid-int64(nShards))
				k.Sleep(sim.Ms(1))
			}
		})
	}
	ok := false
	k.Go("verify", func() {
		wg.Wait()
		for path, want := range newest {
			floor, epoch := r.Floor(path)
			if floor != want {
				t.Errorf("%s floor = %d, want %d", path, floor, want)
			}
			if len(epoch) != 1 || epoch[0] != want {
				t.Errorf("%s floor epoch = %v, want [%d]", path, epoch, want)
			}
			if e, present := r.lru.Peek(path); present && e.Mzxid < floor {
				t.Errorf("%s: stale entry (mzxid %d) survived below floor %d", path, e.Mzxid, floor)
			}
		}
		if r.Stats().RejectedFills == 0 {
			t.Error("the racing stale fills should have been rejected")
		}
		ok = true
	})
	k.Run()
	k.Shutdown()
	if !ok {
		t.Fatal("verification did not run")
	}
}

func TestInvalidateBatchCoalesces(t *testing.T) {
	withRegional(t, 1<<20, func(k *sim.Kernel, ctx cloud.Ctx, r *Regional) {
		for i, p := range []string{"/a", "/b", "/c"} {
			if !r.Fill(ctx, p, blob(64), int64(10+i)) {
				t.Fatalf("fill %s rejected", p)
			}
		}
		// One multi-path record: every path's floor raised, every fenced
		// entry dropped, but only ONE cache-node write paid.
		writesBefore := k.Now()
		r.InvalidateBatch(ctx, []Invalidation{
			{Path: "/a", Mzxid: 20, Epoch: []int64{5}},
			{Path: "/b", Mzxid: 30, Epoch: []int64{5}},
		})
		batchDur := k.Now() - writesBefore
		for _, c := range []struct {
			path  string
			floor int64
		}{{"/a", 20}, {"/b", 30}} {
			if f, _ := r.Floor(c.path); f != c.floor {
				t.Errorf("floor of %s = %d, want %d", c.path, f, c.floor)
			}
			if _, _, ok := r.Lookup(ctx, c.path); ok {
				t.Errorf("fenced entry %s still served", c.path)
			}
		}
		if _, _, ok := r.Lookup(ctx, "/c"); !ok {
			t.Error("untouched path /c evicted by the batch record")
		}
		if st := r.Stats(); st.Invalidations != 2 {
			t.Errorf("invalidation count = %d, want one per record entry", st.Invalidations)
		}
		// The coalesced record must be cheaper than two standalone
		// publishes (one base round trip instead of two).
		t0 := k.Now()
		r.InvalidateBatch(ctx, []Invalidation{{Path: "/a", Mzxid: 40, Epoch: []int64{5}}})
		r.InvalidateBatch(ctx, []Invalidation{{Path: "/b", Mzxid: 50, Epoch: []int64{5}}})
		if single := k.Now() - t0; batchDur >= single {
			t.Errorf("batch record took %v, two standalone records %v", batchDur, single)
		}
	})
}

func TestInvalidateBatchEmptyIsFree(t *testing.T) {
	withRegional(t, 1<<20, func(k *sim.Kernel, ctx cloud.Ctx, r *Regional) {
		t0 := k.Now()
		r.InvalidateBatch(ctx, nil)
		if k.Now() != t0 {
			t.Error("empty batch paid a round trip")
		}
		if st := r.Stats(); st.Invalidations != 0 {
			t.Error("empty batch counted invalidations")
		}
	})
}

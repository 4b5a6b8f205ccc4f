package cache

import (
	"fmt"
	"testing"
	"unsafe"

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
		r.InvalidateBatch(ctx, []Invalidation{{Path: "/a", Mzxid: 20}})
		if _, _, ok := r.Lookup(ctx, "/a"); ok {
			t.Error("invalidated entry still served")
		}
		if floor := r.Floor("/a"); floor != 20 {
			t.Errorf("floor = %d, want 20", floor)
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

// TestRegionalInstallBatch: a flush leg's install is one cache-node round
// trip for the whole batch, admits each object by Fill's rule — rejected
// below the path's floor or below a newer resident entry, accepted at the
// floor — and is counted in Stats.
func TestRegionalInstallBatch(t *testing.T) {
	withRegional(t, 1<<20, func(k *sim.Kernel, ctx cloud.Ctx, r *Regional) {
		r.InvalidateBatch(ctx, []Invalidation{{Path: "/floored", Mzxid: 50}, {Path: "/at", Mzxid: 50}})
		if !r.Fill(ctx, "/newer", blob(16), 100) {
			t.Fatal("fill rejected")
		}
		writes := r.env.Meter.Count("cache.write")
		r.InstallBatch(ctx, []Install{
			{Path: "/a", Blob: blob(32), Mzxid: 60},
			{Path: "/floored", Blob: blob(32), Mzxid: 40},
			{Path: "/at", Blob: blob(32), Mzxid: 50},
			{Path: "/newer", Blob: blob(32), Mzxid: 90},
		})
		if n := r.env.Meter.Count("cache.write") - writes; n != 1 {
			t.Errorf("the install made %d cache-node round trips, want 1", n)
		}
		for path, want := range map[string]int64{"/a": 60, "/at": 50, "/newer": 100} {
			if _, mzxid, ok := r.Lookup(ctx, path); !ok || mzxid != want {
				t.Errorf("%s: ok=%v mzxid=%d, want %d", path, ok, mzxid, want)
			}
		}
		if _, _, ok := r.Lookup(ctx, "/floored"); ok {
			t.Error("an install below the floor must not be readable")
		}
		st := r.Stats()
		if st.Installs != 2 || st.RejectedInstalls != 2 || st.Fills != 1 || st.RejectedFills != 0 {
			t.Errorf("stats off: %+v", st)
		}
	})
}

// TestRegionalInstallRaisesFloor: an install is the only thing the leader
// sends for a plain write, so it must raise the path's floor itself. A
// reader that fetched v1 from the store just before v2's write landed may
// fill it after v2's install — and after capacity pressure evicted v2, so
// no resident entry can reject it. The floor must.
func TestRegionalInstallRaisesFloor(t *testing.T) {
	withRegional(t, capFor(1, 32), func(k *sim.Kernel, ctx cloud.Ctx, r *Regional) {
		r.InstallBatch(ctx, []Install{{Path: "/n", Blob: blob(32), Mzxid: 20}})
		if !r.Fill(ctx, "/m", blob(32), 5) {
			t.Fatal("fill of another path rejected")
		}
		if _, _, ok := r.Lookup(ctx, "/n"); ok {
			t.Fatal("the install of /n was not evicted: the test holds no window")
		}
		if f := r.Floor("/n"); f != 20 {
			t.Errorf("floor after the install = %d, want 20", f)
		}
		if r.Fill(ctx, "/n", blob(32), 10) {
			t.Error("a fill of the value the install replaced resurrected it after an eviction")
		}
		if !r.Fill(ctx, "/n", blob(32), 20) {
			t.Error("a fill of the installed value must be admitted")
		}
	})
}

// TestRegionalRefillFromBeforeLossRejected: Lose wipes the floors and
// starts a new incarnation. A refill whose miss was in the old one is
// rejected even with no floor left to stop it; one whose miss followed the
// restart is taken.
func TestRegionalRefillFromBeforeLossRejected(t *testing.T) {
	withRegional(t, 1<<20, func(k *sim.Kernel, ctx cloud.Ctx, r *Regional) {
		_, _, before, _ := r.Probe(ctx, "/n")
		r.InstallBatch(ctx, []Install{{Path: "/n", Blob: blob(16), Mzxid: 20}})
		r.Lose()
		if r.Refill(ctx, "/n", blob(16), 10, before) {
			t.Error("a refill from before the loss was taken")
		}
		_, _, after, ok := r.Probe(ctx, "/n")
		if ok || after <= before {
			t.Fatalf("probe after the loss: hit %v, incarnation %d after %d", ok, after, before)
		}
		if !r.Refill(ctx, "/n", blob(16), 20, after) {
			t.Error("a refill from after the loss was rejected")
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

// TestRegionalInvalidationNeverLowersFloor: an invalidation raises a
// path's floor to its mzxid and never lowers it, so one that arrives below
// the floor an install set keeps the installed entry and its floor.
func TestRegionalInvalidationNeverLowersFloor(t *testing.T) {
	withRegional(t, 1<<20, func(k *sim.Kernel, ctx cloud.Ctx, r *Regional) {
		r.InstallBatch(ctx, []Install{{Path: "/n", Blob: blob(20), Mzxid: 10}})
		r.InvalidateBatch(ctx, []Invalidation{{Path: "/n", Mzxid: 7}})
		if f := r.Floor("/n"); f != 10 {
			t.Errorf("floor after a lower invalidation = %d, want 10", f)
		}
		if _, mzxid, ok := r.Lookup(ctx, "/n"); !ok || mzxid != 10 {
			t.Errorf("installed entry at the floor: ok=%v mzxid=%d, want kept at 10", ok, mzxid)
		}
		r.InvalidateBatch(ctx, []Invalidation{{Path: "/n", Mzxid: 12}})
		if _, _, ok := r.Lookup(ctx, "/n"); ok {
			t.Error("entry below a higher invalidation's floor survived it")
		}
		if !r.Fill(ctx, "/n", blob(20), 12) {
			t.Error("fill at the new floor rejected")
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
		if f := r.Floor(fmt.Sprintf("/n%d", paths-1)); f != int64(100+paths-1) {
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
				r.InvalidateBatch(ctx, []Invalidation{{Path: path, Mzxid: txid}})
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
			floor := r.Floor(path)
			if floor != want {
				t.Errorf("%s floor = %d, want %d", path, floor, want)
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
			{Path: "/a", Mzxid: 20},
			{Path: "/b", Mzxid: 30},
		})
		batchDur := k.Now() - writesBefore
		for _, c := range []struct {
			path  string
			floor int64
		}{{"/a", 20}, {"/b", 30}} {
			if f := r.Floor(c.path); f != c.floor {
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
		r.InvalidateBatch(ctx, []Invalidation{{Path: "/a", Mzxid: 40}})
		r.InvalidateBatch(ctx, []Invalidation{{Path: "/b", Mzxid: 50}})
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

// TestRegionalKeysOwnTheirBytes: an install's path views the leader's
// queue message. The node stores a new path as a clone, in its floors and
// its entries, and never assigns an existing one again, so no stored key
// views an installer's bytes.
func TestRegionalKeysOwnTheirBytes(t *testing.T) {
	first, second := []byte("/n"), []byte("/n")
	withRegional(t, capFor(2, 32), func(k *sim.Kernel, ctx cloud.Ctx, r *Regional) {
		r.InstallBatch(ctx, []Install{{Path: unsafe.String(&first[0], 2), Blob: blob(32), Mzxid: 1}})
		r.InstallBatch(ctx, []Install{{Path: unsafe.String(&second[0], 2), Blob: blob(32), Mzxid: 2}})
		keys := []string{}
		for p := range r.floors {
			keys = append(keys, p)
		}
		for p := range r.lru.idx {
			keys = append(keys, p)
		}
		if len(keys) != 2 {
			t.Errorf("stored keys %q, want /n once in the floors and once in the entries", keys)
			return
		}
		for _, p := range keys {
			if d := unsafe.StringData(p); d == &first[0] || d == &second[0] {
				t.Errorf("stored key %q views an installer's bytes", p)
			}
		}
		if f := r.Floor("/n"); f != 2 {
			t.Errorf("floor = %d, want 2", f)
		}
	})
}

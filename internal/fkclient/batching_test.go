package fkclient

// Tests of the leader's batching distributor (Config.BatchWrites) from the
// client's perspective: per-op Stat/txid integrity when store writes are
// folded, batch folding edge cases (create→delete→create, set→set),
// sequential numbering and tombstone GC across a coalesced batch, watch
// notification ordering, and the randomized consistency suite with
// batching enabled. The paper-faithful default (BatchWrites off ≡ chunks
// of one message) stays guarded by the golden trace tests in
// sharding_test.go.

import (
	"fmt"
	"testing"

	"faaskeeper/internal/core"
	"faaskeeper/internal/sim"
	"faaskeeper/internal/znode"
)

// hotWrites drives sessions * opsPer pipelined set_data calls against one
// shared node (so leader batches actually coalesce) and returns every
// response in completion order.
func hotWrites(t *testing.T, k *sim.Kernel, d *core.Deployment, path string, sessions, opsPer int) [][]core.Response {
	t.Helper()
	clients := make([]*Client, sessions)
	for i := range clients {
		clients[i] = mustConnect(t, d, fmt.Sprintf("w%d", i))
	}
	all := make([][]core.Response, sessions)
	done := sim.NewWaitGroup(k)
	for i := range clients {
		i := i
		done.Add(1)
		k.Go(fmt.Sprintf("hot-writer-%d", i), func() {
			defer done.Done()
			var futs []*sim.Future[core.Response]
			for op := 0; op < opsPer; op++ {
				futs = append(futs, clients[i].submitWrite(core.OpSetData, path, []byte{byte(i), byte(op)}, -1, 0))
			}
			for _, f := range futs {
				resp, ok := f.WaitTimeout(DefaultRequestTimeout)
				if !ok {
					t.Errorf("writer %d timed out", i)
					return
				}
				all[i] = append(all[i], resp)
			}
		})
	}
	done.Wait()
	for _, c := range clients {
		c.Close()
	}
	return all
}

// TestBatchedPerOpStats is the notifyResult regression: batched operations
// complete at batch flush, but every op must still receive its own Stat
// with its own txid and version — no shared/final-stat leakage from the
// folded store write.
func TestBatchedPerOpStats(t *testing.T) {
	const sessions, opsPer = 8, 5
	run(t, 71, core.Config{UserStore: core.StoreKV, BatchWrites: true}, func(k *sim.Kernel, d *core.Deployment) {
		setup := mustConnect(t, d, "setup")
		if _, err := setup.Create("/hot", nil, 0); err != nil {
			t.Fatalf("create: %v", err)
		}
		d.ResetMetrics()
		all := hotWrites(t, k, d, "/hot", sessions, opsPer)

		// The shared node serializes commits, so versions 1..N are handed
		// out exactly once, in txid order. A response carrying the batch's
		// final stat instead of its own would duplicate a (txid, version)
		// pair and leave a hole elsewhere.
		type sv struct{ txid, version int64 }
		seen := map[sv]bool{}
		versions := map[int64]int64{}
		for i, resps := range all {
			var lastTxid int64
			for _, r := range resps {
				if r.Code != core.CodeOK {
					t.Fatalf("writer %d: %s", i, r.Code)
				}
				if r.Stat.Mzxid != r.Txid {
					t.Errorf("stat mzxid %d != response txid %d", r.Stat.Mzxid, r.Txid)
				}
				if r.Txid <= lastTxid {
					t.Errorf("writer %d: txids not increasing (%d after %d)", i, r.Txid, lastTxid)
				}
				lastTxid = r.Txid
				p := sv{r.Txid, int64(r.Stat.Version)}
				if seen[p] {
					t.Errorf("duplicate (txid, version) pair %+v: final-stat leakage", p)
				}
				seen[p] = true
				versions[int64(r.Stat.Version)] = r.Txid
			}
		}
		total := sessions * opsPer
		var prevTxid int64
		for v := int64(1); v <= int64(total); v++ {
			txid, ok := versions[v]
			if !ok {
				t.Fatalf("version %d never returned to any client", v)
			}
			if txid <= prevTxid {
				t.Errorf("version %d carries txid %d, not above version %d's %d", v, txid, v-1, prevTxid)
			}
			prevTxid = txid
		}
		// The workload must actually have coalesced: every op pays exactly
		// one user-store write in a chunk of its own.
		if w := d.Env.Meter.Count("userkv.write"); w >= int64(total) {
			t.Errorf("no folding happened: %d user-store writes for %d ops", w, total)
		}
		// The folded object is the final state.
		_, st, err := setup.GetData("/hot")
		if err != nil || st.Version != int32(total) {
			t.Errorf("final state: version %d err %v, want %d", st.Version, err, total)
		}
		setup.Close()
	})
}

// TestBatchedCreateDeleteCreateSamePath folds the hardest chain through
// one batch: the final state must be the re-created node, the parent's
// child list must hold it exactly once, and the intermediate tombstone
// must not leak.
func TestBatchedCreateDeleteCreateSamePath(t *testing.T) {
	run(t, 72, core.Config{UserStore: core.StoreKV, BatchWrites: true}, func(k *sim.Kernel, d *core.Deployment) {
		c := mustConnect(t, d, "s1")
		if _, err := c.Create("/a", nil, 0); err != nil {
			t.Fatalf("create parent: %v", err)
		}
		futs := []*sim.Future[core.Response]{
			c.submitWrite(core.OpCreate, "/a/x", []byte("one"), -1, 0),
			c.submitWrite(core.OpDelete, "/a/x", nil, -1, 0),
			c.submitWrite(core.OpCreate, "/a/x", []byte("two"), -1, 0),
		}
		var txids []int64
		for i, f := range futs {
			resp, ok := f.WaitTimeout(DefaultRequestTimeout)
			if !ok || resp.Code != core.CodeOK {
				t.Fatalf("op %d: ok=%v code=%s", i, ok, resp.Code)
			}
			txids = append(txids, resp.Txid)
		}
		data, st, err := c.GetData("/a/x")
		if err != nil || string(data) != "two" {
			t.Fatalf("final read: %q %v", data, err)
		}
		if st.Czxid != txids[2] {
			t.Errorf("czxid %d, want the second create's txid %d", st.Czxid, txids[2])
		}
		if st.Version != 0 {
			t.Errorf("re-created node version %d, want 0", st.Version)
		}
		kids, err := c.GetChildren("/a")
		if err != nil || len(kids) != 1 || kids[0] != "x" {
			t.Errorf("parent children %v (err %v), want exactly [x]", kids, err)
		}

		// A chain ending in delete must garbage collect the tombstone and
		// remove the child everywhere.
		f1 := c.submitWrite(core.OpCreate, "/a/y", nil, -1, 0)
		f2 := c.submitWrite(core.OpDelete, "/a/y", nil, -1, 0)
		for i, f := range []*sim.Future[core.Response]{f1, f2} {
			if resp, ok := f.WaitTimeout(DefaultRequestTimeout); !ok || resp.Code != core.CodeOK {
				t.Fatalf("y op %d failed", i)
			}
		}
		k.Sleep(100 * sim.Ms(1))
		if st, err := c.Exists("/a/y"); err != nil || st != nil {
			t.Errorf("deleted /a/y still visible: %v %v", st, err)
		}
		if kids, err := c.GetChildren("/a"); err != nil || len(kids) != 1 {
			t.Errorf("children after delete: %v %v", kids, err)
		}
		c.Close()
	})
}

// TestBatchedSequentialNumbering pins the sequential counter across a
// coalesced batch: pipelined sequential creates (with a delete in the
// middle of the stream) must keep strictly monotone suffixes — the
// counter never reuses a number even when the store writes were folded.
func TestBatchedSequentialNumbering(t *testing.T) {
	run(t, 73, core.Config{UserStore: core.StoreKV, BatchWrites: true}, func(k *sim.Kernel, d *core.Deployment) {
		c := mustConnect(t, d, "s1")
		if _, err := c.Create("/q", nil, 0); err != nil {
			t.Fatalf("create parent: %v", err)
		}
		futs := []*sim.Future[core.Response]{
			c.submitWrite(core.OpCreate, "/q/n-", nil, -1, znode.FlagSequential),
			c.submitWrite(core.OpCreate, "/q/n-", nil, -1, znode.FlagSequential),
			c.submitWrite(core.OpDelete, znode.SequentialName("/q/n-", 0), nil, -1, 0),
			c.submitWrite(core.OpCreate, "/q/n-", nil, -1, znode.FlagSequential),
		}
		var paths []string
		for i, f := range futs {
			resp, ok := f.WaitTimeout(DefaultRequestTimeout)
			if !ok || resp.Code != core.CodeOK {
				t.Fatalf("op %d: ok=%v code=%s", i, ok, resp.Code)
			}
			if i != 2 {
				paths = append(paths, resp.Path)
			}
		}
		want := []string{
			znode.SequentialName("/q/n-", 0),
			znode.SequentialName("/q/n-", 1),
			znode.SequentialName("/q/n-", 2),
		}
		for i, p := range paths {
			if p != want[i] {
				t.Errorf("sequential create %d named %q, want %q", i, p, want[i])
			}
		}
		kids, err := c.GetChildren("/q")
		if err != nil || len(kids) != 2 {
			t.Errorf("children %v (err %v), want the two surviving nodes", kids, err)
		}
		c.Close()
	})
}

// TestBatchedSetSetFoldingRaisesCacheFloor: with the regional cache tier
// on, set→set folding must publish an invalidation whose floor reaches
// the last folded txid, so no reader can ever re-fill the superseded
// intermediate value.
func TestBatchedSetSetFoldingRaisesCacheFloor(t *testing.T) {
	cfg := core.Config{UserStore: core.StoreKV, BatchWrites: true, CacheMode: core.CacheRegional}
	run(t, 74, cfg, func(k *sim.Kernel, d *core.Deployment) {
		setup := mustConnect(t, d, "setup")
		if _, err := setup.Create("/hot", nil, 0); err != nil {
			t.Fatalf("create: %v", err)
		}
		all := hotWrites(t, k, d, "/hot", 6, 4)
		var lastTxid int64
		for _, resps := range all {
			for _, r := range resps {
				if r.Txid > lastTxid {
					lastTxid = r.Txid
				}
			}
		}
		floor, _ := d.CacheFor(d.Cfg.Profile.Home).Floor("/hot")
		if floor < lastTxid {
			t.Errorf("cache floor %d below the last folded txid %d", floor, lastTxid)
		}
		data, st, err := setup.GetData("/hot")
		if err != nil || st.Mzxid != lastTxid {
			t.Errorf("final read mzxid %d (err %v), want last txid %d", st.Mzxid, err, lastTxid)
		}
		_ = data
		setup.Close()
	})
}

// TestBatchedWatchNotifyOrder: a watch fired inside a coalesced batch
// carries the firing operation's txid, and a read after the notification
// observes at least that transaction (Z4 + MRD gating unchanged).
func TestBatchedWatchNotifyOrder(t *testing.T) {
	run(t, 75, core.Config{UserStore: core.StoreKV, BatchWrites: true}, func(k *sim.Kernel, d *core.Deployment) {
		writer := mustConnect(t, d, "writer")
		watcher := mustConnect(t, d, "watcher")
		if _, err := writer.Create("/w", []byte("v0"), 0); err != nil {
			t.Fatalf("create: %v", err)
		}
		fired := 0
		var notifiedTxid int64
		if _, _, err := watcher.GetDataW("/w", func(n core.Notification) {
			fired++
			notifiedTxid = n.Txid
			_, st, err := watcher.GetData("/w")
			if err != nil || st.Mzxid < n.Txid {
				t.Errorf("read after notify: mzxid %d < notified txid %d (err %v)", st.Mzxid, n.Txid, err)
			}
		}); err != nil {
			t.Fatalf("watch: %v", err)
		}
		var futs []*sim.Future[core.Response]
		for i := 0; i < 3; i++ {
			futs = append(futs, writer.submitWrite(core.OpSetData, "/w", []byte{byte(i)}, -1, 0))
		}
		firstResp, ok := futs[0].WaitTimeout(DefaultRequestTimeout)
		if !ok || firstResp.Code != core.CodeOK {
			t.Fatal("first set failed")
		}
		for _, f := range futs[1:] {
			f.WaitTimeout(DefaultRequestTimeout)
		}
		k.Sleep(5 * sim.Ms(1000))
		if fired != 1 {
			t.Fatalf("watch fired %d times, want 1 (one-shot)", fired)
		}
		if notifiedTxid != firstResp.Txid {
			t.Errorf("notification txid %d, want the firing set's own txid %d", notifiedTxid, firstResp.Txid)
		}
		watcher.Close()
		writer.Close()
	})
}

// TestBatchedRandomizedHistories runs the randomized consistency workload
// with the batching distributor on — alone and combined with the sharded
// pipeline — checking tree integrity and ephemeral cleanup.
func TestBatchedRandomizedHistories(t *testing.T) {
	for _, cfg := range []core.Config{
		{BatchWrites: true},
		{BatchWrites: true, WriteShards: 4},
		{BatchWrites: true, MaxBatch: 2},
		{BatchWrites: true, CacheMode: core.CacheTwoLevel, UserStore: core.StoreKV},
	} {
		cfg := cfg
		name := fmt.Sprintf("shards%d-max%d-cache%v", cfg.WriteShards, cfg.MaxBatch, cfg.CacheMode != core.CacheOff)
		t.Run(name, func(t *testing.T) {
			_, d := randomHistory(t, 606, cfg, 4, 12)
			verifyTreeIntegrity(t, d)
		})
	}
}

// chunkSysWrites pipelines one blocker write and then three sets from one
// session. The blocker's flush holds the serialized leader while the three
// queue up behind it, so they arrive as one invocation — one chunk under
// BatchWrites. It returns the system-store and user-store write counts of
// the whole run.
func chunkSysWrites(t *testing.T, paths [3]string) (sys, user int64) {
	t.Helper()
	run(t, 81, core.Config{BatchWrites: true}, func(k *sim.Kernel, d *core.Deployment) {
		c := mustConnect(t, d, "s1")
		for _, p := range []string{"/w", "/x", "/y", "/z"} {
			if _, err := c.Create(p, nil, 0); err != nil {
				t.Fatalf("create %s: %v", p, err)
			}
		}
		k.Sleep(sim.Ms(1000))
		d.ResetMetrics()
		futs := []*sim.Future[core.Response]{c.submitWrite(core.OpSetData, "/z", make([]byte, 200<<10), -1, 0)}
		for i, p := range paths {
			futs = append(futs, c.submitWrite(core.OpSetData, p, []byte{byte(i)}, -1, 0))
		}
		for i, f := range futs {
			if resp, err := c.await(f); err != nil {
				t.Fatalf("write %d: %v (%s)", i, err, resp.Code)
			}
		}
		k.Sleep(sim.Ms(1000))
		sys, user = d.Env.Meter.Count("syskv.write"), d.Env.Meter.Count("obj.write")
		c.Close()
	})
	return sys, user
}

// TestBatchedSamePathChainPopsInCommitPhase pins the pipeline's pop rule:
// a message followed in its chunk by another on the same path must pop its
// pending entry in the commit phase. A missed early pop is still answered
// correctly — the next message's awaitCommit clears the head as an orphan —
// and shows only as one extra, failed conditional system-store write, so
// the write count is the only tripwire: the chain [set /x, set /x, set /y]
// must cost exactly what three distinct paths cost.
func TestBatchedSamePathChainPopsInCommitPhase(t *testing.T) {
	chainSys, chainUser := chunkSysWrites(t, [3]string{"/x", "/x", "/y"})
	flatSys, flatUser := chunkSysWrites(t, [3]string{"/x", "/w", "/y"})
	// Blocker + three distinct nodes vs blocker + two: the chain really
	// was one chunk and folded.
	if flatUser != 4 || chainUser != 3 {
		t.Fatalf("user-store writes = %d (distinct) / %d (chain), want 4 / 3: the three sets did not arrive as one chunk", flatUser, chainUser)
	}
	if chainSys != flatSys {
		t.Errorf("system-store writes = %d for the same-path chain, %d for distinct paths: a pending pop missed the commit phase", chainSys, flatSys)
	}
}

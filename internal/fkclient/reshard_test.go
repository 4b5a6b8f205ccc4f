package fkclient

// Live-reshard correctness from the client's perspective: dynamic routing
// equivalence at epoch 0, hot-subtree splits / grows / merges under
// concurrent writers (no lost acknowledged write, monotonic per-path
// mzxid), and the randomized matrix across batching, caching, and
// transactions.

import (
	"fmt"
	"math/rand"
	"testing"

	"faaskeeper/internal/cloud"
	"faaskeeper/internal/core"
	"faaskeeper/internal/shardmap"
	"faaskeeper/internal/sim"
	"faaskeeper/internal/txn"
)

// ctlCtx builds a control-plane context for map inspection in tests.
func ctlCtx(d *core.Deployment) cloud.Ctx { return cloud.ClientCtx(d.Cfg.Profile.Home) }

// TestDynamicEpochZeroBehaves: a dynamic deployment that never reshards
// must behave like the static sharded pipeline — same results, txids
// decoding to the routed shard on the fixed stride.
func TestDynamicEpochZeroBehaves(t *testing.T) {
	run(t, 901, core.Config{WriteShards: 2, DynamicShards: true}, func(k *sim.Kernel, d *core.Deployment) {
		c := mustConnect(t, d, "s1")
		defer c.Close()
		for i := 0; i < 6; i++ {
			p := fmt.Sprintf("/t%d", i)
			if _, err := c.Create(p, []byte("v"), 0); err != nil {
				t.Fatalf("create %s: %v", p, err)
			}
			st, err := c.SetData(p, []byte("w"), -1)
			if err != nil {
				t.Fatalf("set %s: %v", p, err)
			}
			if got, want := shardmap.ShardOfTxid(st.Mzxid), d.RouteShard(p); got != want {
				t.Errorf("%s: txid %d minted by shard %d, routed to %d", p, st.Mzxid, got, want)
			}
			if got, want := d.RouteShard(p), core.ShardOf(p, 2); got != want {
				t.Errorf("%s: epoch-0 route %d differs from static %d", p, got, want)
			}
		}
	})
}

// reshardWorkload drives writers hammering their own node under prefix
// while reshard transitions run mid-workload, then verifies that no
// acknowledged write was lost (final version equals the acked count) and
// that each path's acked mzxids were strictly increasing.
func reshardWorkload(t *testing.T, seed int64, cfg core.Config, writers, ops int, reshard func(d *core.Deployment)) {
	t.Helper()
	k := sim.NewKernel(seed)
	d := core.NewDeployment(k, cfg)
	k.Go("driver", func() {
		setup := mustConnect(t, d, "setup")
		if _, err := setup.Create("/hot", nil, 0); err != nil {
			t.Errorf("create /hot: %v", err)
			return
		}
		paths := make([]string, writers)
		for i := range paths {
			paths[i] = fmt.Sprintf("/hot/n%d", i)
			if _, err := setup.Create(paths[i], []byte("v0"), 0); err != nil {
				t.Errorf("create %s: %v", paths[i], err)
				return
			}
		}
		acked := make([]int, writers)
		done := sim.NewWaitGroup(k)
		for i := 0; i < writers; i++ {
			i := i
			done.Add(1)
			k.Go(fmt.Sprintf("w%d", i), func() {
				defer done.Done()
				c, err := Connect(d, fmt.Sprintf("w%d", i), d.Cfg.Profile.Home)
				if err != nil {
					t.Errorf("connect w%d: %v", i, err)
					return
				}
				defer c.Close()
				var lastMzxid int64
				for op := 0; op < ops; op++ {
					st, err := c.SetData(paths[i], []byte(fmt.Sprintf("v%d", op+1)), -1)
					if err != nil {
						t.Errorf("w%d set %d: %v", i, op, err)
						return
					}
					if st.Mzxid <= lastMzxid {
						t.Errorf("w%d: mzxid regressed across reshard: %d after %d (op %d)",
							i, st.Mzxid, lastMzxid, op)
					}
					lastMzxid = st.Mzxid
					acked[i]++
				}
			})
		}
		// The reshard runs mid-workload, concurrent with the writers.
		done.Add(1)
		k.Go("resharder", func() {
			defer done.Done()
			k.Sleep(400 * sim.Ms(1))
			reshard(d)
		})
		done.Wait()
		// No lost acknowledged write: the final version counts every ack.
		reader := mustConnect(t, d, "reader")
		defer reader.Close()
		for i, p := range paths {
			data, st, err := reader.GetData(p)
			if err != nil {
				t.Errorf("read %s: %v", p, err)
				continue
			}
			if int(st.Version) != acked[i] {
				t.Errorf("%s: version %d, acked %d writes (lost write!)", p, st.Version, acked[i])
			}
			if want := fmt.Sprintf("v%d", acked[i]); string(data) != want {
				t.Errorf("%s: data %q, want %q", p, data, want)
			}
		}
		setup.Close()
	})
	k.Run()
	k.Shutdown()
}

// TestLiveSplitNoLostWrites: a hot-subtree split lands mid-workload under
// concurrent writers; every acknowledged write survives and per-path
// mzxids stay monotonic across the shard change.
func TestLiveSplitNoLostWrites(t *testing.T) {
	cfg := core.Config{WriteShards: 2, DynamicShards: true}
	reshardWorkload(t, 1001, cfg, 6, 12, func(d *core.Deployment) {
		if err := d.SplitSubtree("/hot", 4); err != nil {
			t.Errorf("split: %v", err)
			return
		}
		m := d.LoadShardMap(ctlCtx(d))
		if m.Epoch == 0 || len(m.Splits) != 1 {
			t.Errorf("split did not flip the map: %s", m)
		}
	})
}

// TestLiveGrowThenMergeNoLostWrites: growing the queue count and merging
// the split back, both mid-workload.
func TestLiveGrowThenMergeNoLostWrites(t *testing.T) {
	cfg := core.Config{WriteShards: 2, DynamicShards: true}
	reshardWorkload(t, 1002, cfg, 5, 12, func(d *core.Deployment) {
		if err := d.GrowShards(4); err != nil {
			t.Errorf("grow: %v", err)
			return
		}
		if err := d.SplitSubtree("/hot", 2); err != nil {
			t.Errorf("split: %v", err)
			return
		}
		if err := d.MergeSubtree("/hot"); err != nil {
			t.Errorf("merge: %v", err)
		}
	})
}

// TestReshardRandomizedMatrix runs a randomized multi-client history with
// split/merge/grow transitions landing mid-workload, across the feature
// matrix (batching distributor, two-level cache, transactions), and
// checks Z3 per-node monotonicity during the run plus tree integrity and
// the Z1 end state after it.
func TestReshardRandomizedMatrix(t *testing.T) {
	matrix := []struct {
		name   string
		cfg    core.Config
		multis bool // clients also issue cross-path multi()s
	}{
		{"plain", core.Config{WriteShards: 2, DynamicShards: true}, false},
		{"batching", core.Config{WriteShards: 2, DynamicShards: true, BatchWrites: true}, false},
		{"caching", core.Config{WriteShards: 2, DynamicShards: true, CacheMode: core.CacheTwoLevel}, false},
		{"txn", core.Config{WriteShards: 2, DynamicShards: true}, true},
	}
	for _, mc := range matrix {
		for _, seed := range []int64{2024, 7373} {
			mc, seed := mc, seed
			t.Run(fmt.Sprintf("%s/seed%d", mc.name, seed), func(t *testing.T) {
				d := randomReshardHistory(t, seed, mc.cfg, mc.multis, 4, 10)
				verifyTreeIntegrity(t, d)
			})
		}
	}
}

// randomReshardHistory is randomHistory with a concurrent reshard driver:
// while the clients churn, the subtree they fight over is split, merged,
// and the queue count grown.
func randomReshardHistory(t *testing.T, seed int64, cfg core.Config, multis bool, nClients, opsPerClient int) *core.Deployment {
	t.Helper()
	k := sim.NewKernel(seed)
	d := core.NewDeployment(k, cfg)
	paths := []string{"/a", "/b", "/c", "/a/x", "/b/y"}

	k.Go("driver", func() {
		setup, err := Connect(d, "setup", d.Cfg.Profile.Home)
		if err != nil {
			t.Errorf("setup connect: %v", err)
			return
		}
		setup.Create("/a", nil, 0)
		setup.Create("/b", nil, 0)
		setup.Create("/c", nil, 0)

		done := sim.NewWaitGroup(k)
		for ci := 0; ci < nClients; ci++ {
			id := fmt.Sprintf("s%d", ci)
			r := rand.New(rand.NewSource(seed + int64(ci)*101))
			done.Add(1)
			k.Go(id, func() {
				defer done.Done()
				c, err := Connect(d, id, d.Cfg.Profile.Home)
				if err != nil {
					t.Errorf("%s connect: %v", id, err)
					return
				}
				defer c.Close()
				lastRead := map[string]int64{}
				for op := 0; op < opsPerClient; op++ {
					path := paths[r.Intn(len(paths))]
					switch r.Intn(10) {
					case 0, 1, 2, 3:
						_, err := c.SetData(path, []byte(id), -1)
						if err != nil && !isExpectedError(err) {
							t.Errorf("%s set %s: %v", id, path, err)
						}
					case 4:
						_, err := c.Create(path, []byte(id), 0)
						if err != nil && !isExpectedError(err) {
							t.Errorf("%s create %s: %v", id, path, err)
						}
					case 5:
						err := c.Delete(path, -1)
						if err != nil && !isExpectedError(err) {
							t.Errorf("%s delete %s: %v", id, path, err)
						}
					case 6:
						if multis {
							// A cross-path multi keeps the coordinator in
							// the mix while reshards land around it.
							_, err := c.Multi(
								txn.SetData("/a", []byte(id), -1),
								txn.SetData("/b", []byte(id), -1),
							)
							if err != nil && !isExpectedError(err) {
								t.Errorf("%s multi: %v", id, err)
							}
						}
					default:
						_, st, err := c.GetData(path)
						if err == nil {
							if st.Mzxid < lastRead[path] {
								t.Errorf("%s: Z3 violated on %s across reshard: mzxid %d after %d",
									id, path, st.Mzxid, lastRead[path])
							}
							lastRead[path] = st.Mzxid
						} else if !isExpectedError(err) {
							t.Errorf("%s read %s: %v", id, path, err)
						}
					}
					k.Sleep(sim.Time(r.Intn(40)) * sim.Ms(1))
				}
			})
		}
		done.Add(1)
		k.Go("resharder", func() {
			defer done.Done()
			k.Sleep(300 * sim.Ms(1))
			if err := d.SplitSubtree("/a", 2); err != nil {
				t.Errorf("split /a: %v", err)
			}
			k.Sleep(400 * sim.Ms(1))
			if err := d.GrowShards(5); err != nil {
				t.Errorf("grow: %v", err)
			}
			k.Sleep(400 * sim.Ms(1))
			if err := d.MergeSubtree("/a"); err != nil {
				t.Errorf("merge /a: %v", err)
			}
		})
		done.Wait()
		setup.Close()
	})
	k.Run()
	k.Shutdown()
	return d
}

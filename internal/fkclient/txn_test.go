package fkclient

// Tests of the multi() transaction subsystem (package txn + the core
// coordinator) from the client's perspective: multi() on the default
// config, the single-shard fast path, cross-shard two-phase commits, validation
// aborts with no partial effects, isolation against conflicting writers,
// coordinator crash recovery by redelivery, and the randomized
// cross-shard histories asserting that no partial commit is ever
// observable and no uncommitted intent is ever read.

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"faaskeeper/internal/cloud"
	"faaskeeper/internal/core"
	"faaskeeper/internal/sim"
	"faaskeeper/internal/txn"
	"faaskeeper/internal/znode"
)

// TestMultiOnDefaultConfig: multi() needs no switch — a transaction on
// the zero Config commits.
func TestMultiOnDefaultConfig(t *testing.T) {
	run(t, 81, core.Config{}, func(k *sim.Kernel, d *core.Deployment) {
		c := mustConnect(t, d, "s1")
		defer c.Close()
		res, err := c.Multi(txn.Create("/a", []byte("v"), 0))
		if err != nil || len(res) != 1 || res[0].Code != "ok" {
			t.Fatalf("multi on core.Config{}: %+v, %v", res, err)
		}
		if data, _, err := c.GetData("/a"); err != nil || string(data) != "v" {
			t.Errorf("get /a after multi: %q, %v", data, err)
		}
	})
}

func TestMultiSingleShardFastPath(t *testing.T) {
	run(t, 82, core.Config{}, func(k *sim.Kernel, d *core.Deployment) {
		c := mustConnect(t, d, "s1")
		defer c.Close()
		if _, err := c.Create("/app", []byte("v0"), 0); err != nil {
			t.Fatalf("create: %v", err)
		}
		results, err := c.Multi(
			txn.Check("/app", 0),
			txn.Create("/app/a", []byte("one"), 0),
			txn.Create("/app/b", []byte("two"), 0),
			txn.SetData("/app", []byte("v1"), 0),
		)
		if err != nil {
			t.Fatalf("multi: %v", err)
		}
		if len(results) != 4 {
			t.Fatalf("results: %d, want 4", len(results))
		}
		for i, r := range results {
			if r.Code != txn.CodeOK {
				t.Errorf("op %d: code %s", i, r.Code)
			}
		}
		// All effectful ops share one txid — one transaction, one zxid.
		if results[1].Txid == 0 || results[1].Txid != results[2].Txid || results[2].Txid != results[3].Txid {
			t.Errorf("sub-op txids differ: %d %d %d", results[1].Txid, results[2].Txid, results[3].Txid)
		}
		if results[3].Stat.Version != 1 {
			t.Errorf("set version = %d, want 1", results[3].Stat.Version)
		}
		data, st, err := c.GetData("/app")
		if err != nil || string(data) != "v1" || st.Version != 1 {
			t.Errorf("final /app: %q v%d (%v)", data, st.Version, err)
		}
		kids, err := c.GetChildren("/app")
		if err != nil || len(kids) != 2 {
			t.Errorf("children: %v (%v)", kids, err)
		}
		// No 2PC machinery on the fast path: no transaction records.
		if n, _ := d.Txns.Mint(cloud.ClientCtx(d.Cfg.Profile.Home)); n != 1 {
			t.Errorf("txn counter = %d, want 1 (untouched before this mint)", n)
		}
	})
}

func TestMultiValidationAbortLeavesNoTrace(t *testing.T) {
	for _, shards := range []int{1, 4} {
		shards := shards
		t.Run(fmt.Sprintf("shards%d", shards), func(t *testing.T) {
			run(t, int64(83+shards), core.Config{WriteShards: shards}, func(k *sim.Kernel, d *core.Deployment) {
				c := mustConnect(t, d, "s1")
				defer c.Close()
				paths := shardedPaths(shards, max(2, shards))
				for _, p := range paths {
					if _, err := c.Create(p, []byte("v0"), 0); err != nil {
						t.Fatalf("create %s: %v", p, err)
					}
				}
				// The version check on the last op fails: nothing applies.
				ops := []txn.Op{
					txn.SetData(paths[0], []byte("new"), 0),
					txn.SetData(paths[1], []byte("new"), 7), // wrong version
				}
				results, err := c.Multi(ops...)
				if !errors.Is(err, core.ErrBadVersion) {
					t.Fatalf("multi err = %v, want ErrBadVersion", err)
				}
				if len(results) != 2 || results[1].Code != string(core.CodeBadVersion) ||
					results[0].Code != txn.CodeAborted {
					t.Errorf("results = %+v", results)
				}
				for _, p := range paths[:2] {
					data, st, err := c.GetData(p)
					if err != nil || string(data) != "v0" || st.Version != 0 {
						t.Errorf("%s after abort: %q v%d (%v)", p, data, st.Version, err)
					}
				}
				// A later write proceeds normally: no intent leaked.
				if _, err := c.SetData(paths[1], []byte("after"), 0); err != nil {
					t.Errorf("write after abort: %v", err)
				}
			})
		})
	}
}

func TestMultiCrossShardCommit(t *testing.T) {
	for _, shards := range []int{2, 4} {
		shards := shards
		t.Run(fmt.Sprintf("shards%d", shards), func(t *testing.T) {
			cfg := core.Config{WriteShards: shards, UserStore: core.StoreKV}
			var dep *core.Deployment
			run(t, int64(90+shards), cfg, func(k *sim.Kernel, d *core.Deployment) {
				dep = d
				c := mustConnect(t, d, "s1")
				defer c.Close()
				paths := shardedPaths(shards, shards)
				for _, p := range paths {
					if _, err := c.Create(p, []byte("v0"), 0); err != nil {
						t.Fatalf("create %s: %v", p, err)
					}
				}
				var ops []txn.Op
				for _, p := range paths {
					ops = append(ops, txn.SetData(p, []byte("committed"), 0))
					ops = append(ops, txn.Create(p+"/child", []byte("born"), 0))
				}
				results, err := c.Multi(ops...)
				if err != nil {
					t.Fatalf("multi: %v", err)
				}
				// Per-shard txids: ops of one shard share one, different
				// shards differ.
				byShard := map[int]int64{}
				for i, r := range results {
					if r.Code != txn.CodeOK {
						t.Fatalf("op %d: %s", i, r.Code)
					}
					s := core.ShardOf(r.Path, shards)
					if prev, ok := byShard[s]; ok && prev != r.Txid {
						t.Errorf("shard %d ops carry txids %d and %d", s, prev, r.Txid)
					}
					byShard[s] = r.Txid
				}
				if len(byShard) != shards {
					t.Errorf("participant shards = %d, want %d", len(byShard), shards)
				}
				for _, p := range paths {
					data, st, err := c.GetData(p)
					if err != nil || string(data) != "committed" || st.Version != 1 {
						t.Errorf("%s: %q v%d (%v)", p, data, st.Version, err)
					}
					if data, _, err := c.GetData(p + "/child"); err != nil || string(data) != "born" {
						t.Errorf("%s/child: %q (%v)", p, data, err)
					}
				}
				// Reads and writes after the commit see no intent leftovers.
				reader := mustConnect(t, d, "s2")
				defer reader.Close()
				for _, p := range paths {
					if _, err := reader.SetData(p, []byte("later"), 1); err != nil {
						t.Errorf("post-commit write %s: %v", p, err)
					}
				}
			})
			verifyTreeIntegrity(t, dep)
		})
	}
}

func TestMultiCrossShardAbortAllOrNothing(t *testing.T) {
	cfg := core.Config{WriteShards: 4, UserStore: core.StoreKV}
	run(t, 95, cfg, func(k *sim.Kernel, d *core.Deployment) {
		c := mustConnect(t, d, "s1")
		defer c.Close()
		paths := shardedPaths(4, 4)
		for _, p := range paths {
			if _, err := c.Create(p, []byte("v0"), 0); err != nil {
				t.Fatalf("create %s: %v", p, err)
			}
		}
		results, err := c.Multi(
			txn.SetData(paths[0], []byte("x"), 0),
			txn.SetData(paths[1], []byte("x"), 0),
			txn.Check(paths[2], 9), // fails
			txn.Delete(paths[3], 0),
		)
		if !errors.Is(err, core.ErrBadVersion) {
			t.Fatalf("multi err = %v, want ErrBadVersion", err)
		}
		if results[2].Code != string(core.CodeBadVersion) {
			t.Errorf("check result = %+v", results[2])
		}
		for _, p := range paths {
			data, st, err := c.GetData(p)
			if err != nil || string(data) != "v0" || st.Version != 0 {
				t.Errorf("%s after abort: %q v%d (%v)", p, data, st.Version, err)
			}
		}
	})
}

func TestMultiIsolationAgainstConflictingWriters(t *testing.T) {
	// Transactions and single-op writers hammer the same two cross-shard
	// nodes; every committed write must keep each node's version chain
	// gapless (no lost updates, no writes slipping inside a transaction's
	// prepare/apply window).
	cfg := core.Config{WriteShards: 4, UserStore: core.StoreKV}
	run(t, 96, cfg, func(k *sim.Kernel, d *core.Deployment) {
		setup := mustConnect(t, d, "setup")
		paths := shardedPaths(4, 2)
		for _, p := range paths {
			if _, err := setup.Create(p, nil, 0); err != nil {
				t.Fatalf("create %s: %v", p, err)
			}
		}
		const writers, opsEach = 3, 4
		txnOK := 0
		done := sim.NewWaitGroup(k)
		for w := 0; w < writers; w++ {
			w := w
			done.Add(1)
			k.Go(fmt.Sprintf("txw%d", w), func() {
				defer done.Done()
				c := mustConnect(t, d, fmt.Sprintf("txw%d", w))
				defer c.Close()
				for i := 0; i < opsEach; i++ {
					_, err := c.Multi(
						txn.SetData(paths[0], []byte{byte(w), byte(i)}, -1),
						txn.SetData(paths[1], []byte{byte(w), byte(i)}, -1),
					)
					if err == nil {
						txnOK++
					} else if !errors.Is(err, core.ErrSystemError) {
						t.Errorf("txn writer %d: %v", w, err)
					}
				}
			})
			done.Add(1)
			k.Go(fmt.Sprintf("sw%d", w), func() {
				defer done.Done()
				c := mustConnect(t, d, fmt.Sprintf("sw%d", w))
				defer c.Close()
				for i := 0; i < opsEach; i++ {
					if _, err := c.SetData(paths[i%2], []byte{0xFF, byte(w), byte(i)}, -1); err != nil {
						t.Errorf("single writer %d: %v", w, err)
					}
				}
			})
		}
		done.Wait()
		if txnOK == 0 {
			t.Fatal("no transaction committed")
		}
		// paths[0]: txnOK txn writes + writers*opsEach/2 single writes.
		singlePer := writers * opsEach / 2
		for _, p := range paths {
			_, st, err := c0Read(t, setup, p)
			if err != nil {
				t.Fatalf("read %s: %v", p, err)
			}
			want := int32(txnOK + singlePer)
			if st.Version != want {
				t.Errorf("%s version = %d, want %d (txnOK=%d): lost or doubled update", p, st.Version, want, txnOK)
			}
		}
	})
}

func c0Read(t *testing.T, c *Client, path string) ([]byte, znode.Stat, error) {
	t.Helper()
	return c.GetData(path)
}

func TestMultiCoordinatorCrashRecovery(t *testing.T) {
	// Crash injection fires inside the coordinator (after pushes and after
	// the commit decision); queue redelivery must resume the durable
	// record and apply the transaction exactly once.
	cfg := core.Config{
		WriteShards: 4, UserStore: core.StoreKV,
		Retries: 6,
	}
	run(t, 97, cfg, func(k *sim.Kernel, d *core.Deployment) {
		crashes := newCrashAfterPush(97, 0.4)
		k.SetFaultHook(crashes)
		c := mustConnect(t, d, "s1")
		defer c.Close()
		paths := shardedPaths(4, 2)
		for _, p := range paths {
			if _, err := c.Create(p, nil, 0); err != nil {
				t.Fatalf("create %s: %v", p, err)
			}
		}
		const n = 8
		committed := 0
		for i := 0; i < n; i++ {
			_, err := c.Multi(
				txn.SetData(paths[0], []byte{byte(i)}, -1),
				txn.SetData(paths[1], []byte{byte(i)}, -1),
			)
			if err == nil {
				committed++
			}
		}
		if committed != n {
			t.Errorf("only %d/%d transactions survived coordinator crashes", committed, n)
		}
		if len(crashes.crashes) == 0 {
			t.Error("no coordinator crash was injected: the test exercised nothing")
		}
		for _, p := range paths {
			_, st, err := c.GetData(p)
			if err != nil {
				t.Fatalf("read %s: %v", p, err)
			}
			if st.Version != int32(committed) {
				t.Errorf("%s version = %d, want %d: a crash double-applied or lost a commit", p, st.Version, committed)
			}
		}
	})
}

// TestMultiRandomizedNoPartialCommit is the flagship isolation suite: on a
// KV-backed 4-shard deployment (atomic multi-path apply), writers race
// version-guarded transactions that write one monotonically increasing
// token to a cross-shard path pair, while readers continuously read the
// pair in REVERSE commit order. If a reader observes token T on the
// second path, the first path must already show >= T — any partial
// visibility of a transaction breaks the invariant. Values must also only
// ever come from committed transactions (no uncommitted intents).
func TestMultiRandomizedNoPartialCommit(t *testing.T) {
	cfg := core.Config{WriteShards: 4, UserStore: core.StoreKV}
	var dep *core.Deployment
	run(t, 98, cfg, func(k *sim.Kernel, d *core.Deployment) {
		dep = d
		setup := mustConnect(t, d, "setup")
		paths := shardedPaths(4, 2)
		pA, pB := paths[0], paths[1]
		if _, err := setup.Create(pA, []byte("0"), 0); err != nil {
			t.Fatalf("create: %v", err)
		}
		if _, err := setup.Create(pB, []byte("0"), 0); err != nil {
			t.Fatalf("create: %v", err)
		}
		committed := map[string]bool{"0": true}
		var observed []string // every token any reader saw, checked post-hoc
		var maxCommitted int
		stop := false

		const writers = 3
		done := sim.NewWaitGroup(k)
		for w := 0; w < writers; w++ {
			w := w
			done.Add(1)
			k.Go(fmt.Sprintf("w%d", w), func() {
				defer done.Done()
				c := mustConnect(t, d, fmt.Sprintf("w%d", w))
				defer c.Close()
				r := rand.New(rand.NewSource(int64(1000 + w)))
				for i := 0; i < 10; i++ {
					// Read-validate-write: the version guard serializes the
					// token sequence; losers abort and retry next round.
					_, stA, err := c.GetData(pA)
					if err != nil {
						t.Errorf("writer read: %v", err)
						return
					}
					next := fmt.Sprintf("%d", maxCommitted+1)
					_, err = c.Multi(
						txn.SetData(pA, []byte(next), stA.Version),
						txn.SetData(pB, []byte(next), stA.Version),
					)
					if err == nil {
						committed[next] = true
						if v := maxCommitted + 1; v > maxCommitted {
							maxCommitted = v
						}
					} else if !errors.Is(err, core.ErrBadVersion) && !errors.Is(err, core.ErrSystemError) {
						t.Errorf("writer %d: %v", w, err)
					}
					k.Sleep(sim.Time(r.Intn(30)) * sim.Ms(1))
				}
			})
		}
		for rdr := 0; rdr < 2; rdr++ {
			rdr := rdr
			done.Add(1)
			k.Go(fmt.Sprintf("r%d", rdr), func() {
				defer done.Done()
				c := mustConnect(t, d, fmt.Sprintf("r%d", rdr))
				defer c.Close()
				r := rand.New(rand.NewSource(int64(2000 + rdr)))
				for !stop {
					// Reverse order: pB first, then pA.
					dataB, _, err := c.GetData(pB)
					if err != nil {
						t.Errorf("reader: %v", err)
						return
					}
					dataA, _, err := c.GetData(pA)
					if err != nil {
						t.Errorf("reader: %v", err)
						return
					}
					vB, vA := atoiOr(t, string(dataB)), atoiOr(t, string(dataA))
					// A committed value is readable before the writer's own
					// response arrives, so commit membership is verified
					// after the run; the ordering invariant holds inline.
					observed = append(observed, string(dataA), string(dataB))
					if vA < vB {
						t.Errorf("partial commit observed: %s=%d while %s=%d", pA, vA, pB, vB)
					}
					k.Sleep(sim.Time(1+r.Intn(10)) * sim.Ms(1))
				}
			})
		}
		k.Go("stopper", func() {
			k.Sleep(20 * sim.Ms(1000))
			stop = true
		})
		done.Wait()
		stop = true
		if maxCommitted == 0 {
			t.Fatal("no transaction ever committed")
		}
		// Zero reads of uncommitted intents: every observed token belongs
		// to a transaction that committed (aborted ones wrote nothing).
		for _, tok := range observed {
			if !committed[tok] {
				t.Errorf("read a value no committed transaction wrote: %q", tok)
			}
		}
		// All-or-nothing at quiescence: both paths hold the same final token.
		dataA, _, _ := setup.GetData(pA)
		dataB, _, _ := setup.GetData(pB)
		if string(dataA) != string(dataB) {
			t.Errorf("final states diverge: %s=%q %s=%q", pA, dataA, pB, dataB)
		}
		setup.Close()
	})
	verifyTreeIntegrity(t, dep)
}

func atoiOr(t *testing.T, s string) int {
	t.Helper()
	n := 0
	for _, ch := range s {
		if ch < '0' || ch > '9' {
			t.Fatalf("non-numeric token %q", s)
		}
		n = n*10 + int(ch-'0')
	}
	return n
}

// TestMultiRandomizedHistoriesWithTxn runs the randomized consistency
// workload with transactions interleaved — sharded, batched, and cached
// variants — checking tree integrity afterwards.
func TestMultiRandomizedHistoriesWithTxn(t *testing.T) {
	for _, cfg := range []core.Config{
		{WriteShards: 4},
		{WriteShards: 4, BatchWrites: true},
		{WriteShards: 2, CacheMode: core.CacheTwoLevel, UserStore: core.StoreKV},
	} {
		cfg := cfg
		name := fmt.Sprintf("shards%d-batch%v-cache%v", cfg.WriteShards, cfg.BatchWrites, cfg.CacheMode != core.CacheOff)
		t.Run(name, func(t *testing.T) {
			var dep *core.Deployment
			run(t, 707, cfg, func(k *sim.Kernel, d *core.Deployment) {
				dep = d
				setup := mustConnect(t, d, "setup")
				paths := shardedPaths(cfg.WriteShards, 4)
				for _, p := range paths {
					if _, err := setup.Create(p, nil, 0); err != nil {
						t.Fatalf("create %s: %v", p, err)
					}
				}
				done := sim.NewWaitGroup(k)
				for ci := 0; ci < 3; ci++ {
					ci := ci
					done.Add(1)
					k.Go(fmt.Sprintf("c%d", ci), func() {
						defer done.Done()
						c := mustConnect(t, d, fmt.Sprintf("c%d", ci))
						defer c.Close()
						r := rand.New(rand.NewSource(int64(707 + ci)))
						for op := 0; op < 10; op++ {
							switch r.Intn(4) {
							case 0: // cross-shard txn
								i, j := r.Intn(len(paths)), r.Intn(len(paths))
								_, err := c.Multi(
									txn.SetData(paths[i], []byte{byte(ci), byte(op)}, -1),
									txn.SetData(paths[j], []byte{byte(ci), byte(op)}, -1),
								)
								if err != nil && !isExpectedError(err) && !errors.Is(err, core.ErrSystemError) {
									t.Errorf("txn: %v", err)
								}
							case 1: // txn with create/delete churn
								p := fmt.Sprintf("%s/n%d_%d", paths[r.Intn(len(paths))], ci, op)
								if _, err := c.Multi(
									txn.Create(p, []byte("x"), 0),
									txn.SetData(p, []byte("y"), 0),
								); err != nil && !isExpectedError(err) && !errors.Is(err, core.ErrSystemError) {
									t.Errorf("churn txn: %v", err)
								}
							case 2:
								if _, err := c.SetData(paths[r.Intn(len(paths))], []byte{byte(op)}, -1); err != nil && !isExpectedError(err) {
									t.Errorf("set: %v", err)
								}
							default:
								if _, _, err := c.GetData(paths[r.Intn(len(paths))]); err != nil && !isExpectedError(err) {
									t.Errorf("get: %v", err)
								}
							}
							k.Sleep(sim.Time(r.Intn(25)) * sim.Ms(1))
						}
					})
				}
				done.Wait()
				setup.Close()
			})
			verifyTreeIntegrity(t, dep)
		})
	}
}

// TestMultiTopLevelSequentialShardDrift: routing is decided on the
// REQUESTED paths, but a top-level sequential create resolves to a
// different top segment — and so possibly a different shard. The fast
// path must detect the drift after resolution and fall back to the
// coordinator instead of committing a node outside its owning shard's
// pipeline.
func TestMultiTopLevelSequentialShardDrift(t *testing.T) {
	cfg := core.Config{WriteShards: 4, UserStore: core.StoreKV}
	run(t, 100, cfg, func(k *sim.Kernel, d *core.Deployment) {
		c := mustConnect(t, d, "s1")
		defer c.Close()
		anchor := shardedPaths(4, 1)[0]
		if _, err := c.Create(anchor, nil, 0); err != nil {
			t.Fatalf("create: %v", err)
		}
		// Both requested paths route to one shard; the sequential create's
		// final name may hash anywhere.
		for i := 0; i < 6; i++ {
			results, err := c.Multi(
				txn.Create("/seq-", []byte{byte(i)}, znode.FlagSequential),
				txn.SetData(anchor, []byte{byte(i)}, int32(i)),
			)
			if err != nil {
				t.Fatalf("multi %d: %v", i, err)
			}
			p := results[0].Path
			// The committed txid's shard residue must name the resolved
			// path's owning shard (MRD/epoch attribution depends on it).
			if got := int(results[0].Txid % 4); got != core.ShardOf(p, 4) {
				t.Errorf("create %s committed under shard %d, owner is %d", p, got, core.ShardOf(p, 4))
			}
			if data, _, err := c.GetData(p); err != nil || len(data) != 1 || data[0] != byte(i) {
				t.Errorf("read %s: %q (%v)", p, data, err)
			}
		}
		if _, st, err := c.GetData(anchor); err != nil || st.Version != 6 {
			t.Errorf("anchor version = %d (%v), want 6", st.Version, err)
		}
	})
}

// TestMultiSequentialAndEphemeral: sequential names resolve inside the
// transaction and ephemeral creates register with the session (removed on
// close).
func TestMultiSequentialAndEphemeral(t *testing.T) {
	run(t, 99, core.Config{WriteShards: 2}, func(k *sim.Kernel, d *core.Deployment) {
		owner := mustConnect(t, d, "owner")
		if _, err := owner.Create("/q", nil, 0); err != nil {
			t.Fatalf("create: %v", err)
		}
		results, err := owner.Multi(
			txn.Create("/q/n-", nil, znode.FlagSequential),
			txn.Create("/q/n-", nil, znode.FlagSequential),
			txn.Create("/q/eph", nil, znode.FlagEphemeral),
		)
		if err != nil {
			t.Fatalf("multi: %v", err)
		}
		if results[0].Path != znode.SequentialName("/q/n-", 0) || results[1].Path != znode.SequentialName("/q/n-", 1) {
			t.Errorf("sequential names: %q %q", results[0].Path, results[1].Path)
		}
		if !strings.HasPrefix(results[0].Path, "/q/n-") {
			t.Errorf("sequential path %q", results[0].Path)
		}
		if err := owner.Close(); err != nil {
			t.Fatalf("close: %v", err)
		}
		reader := mustConnect(t, d, "reader")
		defer reader.Close()
		if st, err := reader.Exists("/q/eph"); err != nil || st != nil {
			t.Errorf("ephemeral survived owner close: %v %v", st, err)
		}
		if kids, err := reader.GetChildren("/q"); err != nil || len(kids) != 2 {
			t.Errorf("children after close: %v (%v)", kids, err)
		}
	})
}

package fkclient

// Tests of multi() (package txn + the core fast path) from the client's
// perspective, beyond conform's Atomic group (commit, per-op aborts and
// sequential names on every target): validation aborts with no partial
// effects across shards, the cross_shard answer,
// isolation against conflicting writers, and the randomized histories
// asserting that no partial commit is ever observable and no uncommitted
// write is ever read. On a sharded deployment the pairs a multi() writes
// sit under one top-level node, so they share a shard.

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"faaskeeper/internal/cloud"
	"faaskeeper/internal/core"
	"faaskeeper/internal/sim"
	"faaskeeper/internal/txn"
	"faaskeeper/internal/znode"
)

// TestUnsendableMultiLeavesTheSessionUsable: a multi() whose ops each fit
// a node but together overflow the session queue's message limit never
// leaves the client; it is answered with a system error in its place in the
// session's order, and the next write is answered as usual.
func TestUnsendableMultiLeavesTheSessionUsable(t *testing.T) {
	run(t, 82, core.Config{}, func(k *sim.Kernel, d *core.Deployment) {
		c := mustConnect(t, d, "s1")
		defer c.Close()
		big := make([]byte, 200*1024)
		if _, err := c.Multi(txn.Create("/a", big, 0), txn.Create("/b", big, 0)); !errors.Is(err, core.ErrSystemError) {
			t.Fatalf("a 400 kB multi(): %v, want ErrSystemError", err)
		}
		if _, err := c.Create("/after", nil, 0); err != nil {
			t.Errorf("the write after the unsendable multi(): %v", err)
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
				// A later write proceeds normally: no lock or mark leaked.
				if _, err := c.SetData(paths[1], []byte("after"), 0); err != nil {
					t.Errorf("write after abort: %v", err)
				}
			})
		})
	}
}

func TestMultiIsolationAgainstConflictingWriters(t *testing.T) {
	// Transactions and single-op writers hammer the same two colocated
	// nodes; every committed write must keep each node's version chain
	// gapless (no lost updates, no writes slipping inside a transaction's
	// prepare/apply window).
	cfg := core.Config{WriteShards: 4, UserStore: core.StoreKV}
	run(t, 96, cfg, func(k *sim.Kernel, d *core.Deployment) {
		setup := mustConnect(t, d, "setup")
		paths := colocatedPair(t, setup)
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

// colocatedPair creates one top-level node of a 4-shard deployment and
// returns two paths under it, not yet created: a pair one multi() may write.
func colocatedPair(t *testing.T, c *Client) []string {
	t.Helper()
	top := shardedPaths(4, 1)[0]
	if _, err := c.Create(top, nil, 0); err != nil {
		t.Errorf("create %s: %v", top, err)
	}
	return []string{top + "/a", top + "/b"}
}

// TestMultiRandomizedNoPartialCommit is the flagship isolation suite: on a
// KV-backed 4-shard deployment (atomic multi-path apply), writers race
// version-guarded transactions that write one monotonically increasing
// token to a colocated path pair, while readers continuously read the
// pair in REVERSE commit order. If a reader observes token T on the
// second path, the first path must already show >= T — any partial
// visibility of a transaction breaks the invariant. Values must also only
// ever come from committed transactions (nothing uncommitted).
func TestMultiRandomizedNoPartialCommit(t *testing.T) {
	cfg := core.Config{WriteShards: 4, UserStore: core.StoreKV}
	var dep *core.Deployment
	run(t, 98, cfg, func(k *sim.Kernel, d *core.Deployment) {
		dep = d
		setup := mustConnect(t, d, "setup")
		paths := colocatedPair(t, setup)
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
		// Zero reads of uncommitted writes: every observed token belongs
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

// verifyTreeIntegrity checks Z1's end state: every child a node lists in
// the user store is readable, under its own path.
func verifyTreeIntegrity(t *testing.T, d *core.Deployment) {
	t.Helper()
	done := false
	d.K.Go("verify", func() {
		ctx := cloud.ClientCtx(d.Cfg.Profile.Home)
		store := d.PrimaryStore()
		var walk func(path string)
		walk = func(path string) {
			n, _, err := store.Read(ctx, path)
			if err != nil {
				t.Errorf("integrity: read %s: %v", path, err)
				return
			}
			for _, child := range n.Children {
				childPath := znode.Join(path, child)
				cn, _, err := store.Read(ctx, childPath)
				if err != nil {
					t.Errorf("integrity: %s lists child %s but it is unreadable: %v", path, child, err)
					continue
				}
				if cn.Path != childPath {
					t.Errorf("integrity: %s stored under wrong path %s", childPath, cn.Path)
				}
				walk(childPath)
			}
		}
		walk(znode.Root)
		done = true
	})
	d.K.Run()
	d.K.Shutdown()
	if !done {
		t.Error("integrity walk did not finish")
	}
}

// isExpectedError reports whether err is a ZooKeeper answer a random
// workload may legitimately get.
func isExpectedError(err error) bool {
	return errors.Is(err, core.ErrNoNode) || errors.Is(err, core.ErrNodeExists) ||
		errors.Is(err, core.ErrBadVersion) || errors.Is(err, core.ErrNotEmpty)
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

// TestMultiRandomizedHistoriesWithTxn runs a randomized workload of
// transactions, sets and gets — sharded, batched, and cached variants —
// checking tree integrity afterwards.
func TestMultiRandomizedHistoriesWithTxn(t *testing.T) {
	for _, cfg := range []core.Config{
		{WriteShards: 4},
		{WriteShards: 4, BatchWrites: true},
		{WriteShards: 2, CacheMode: core.CacheRegional, UserStore: core.StoreKV},
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
					for _, n := range []string{p, p + "/c"} {
						if _, err := setup.Create(n, nil, 0); err != nil {
							t.Fatalf("create %s: %v", n, err)
						}
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
							case 0: // txn over a node and its child: one shard
								p := paths[r.Intn(len(paths))]
								_, err := c.Multi(
									txn.SetData(p, []byte{byte(ci), byte(op)}, -1),
									txn.SetData(p+"/c", []byte{byte(ci), byte(op)}, -1),
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

// TestMultiTopLevelSequentialShardDrift: a top-level sequential create is
// named only during validation, and its name hashes to any shard. Where it
// lands on another shard than its sibling the multi() spans two shards: the
// sibling, the first op on the second shard, carries cross_shard, the
// create txn_aborted, and nothing is created. Next to a sibling on the
// name's own shard the same create commits, under that shard's txid.
func TestMultiTopLevelSequentialShardDrift(t *testing.T) {
	cfg := core.Config{WriteShards: 4, UserStore: core.StoreKV}
	run(t, 100, cfg, func(k *sim.Kernel, d *core.Deployment) {
		c := mustConnect(t, d, "s1")
		defer c.Close()
		anchors := shardedPaths(4, 4) // anchors[s] is on shard s
		for _, p := range anchors {
			if _, err := c.Create(p, nil, 0); err != nil {
				t.Fatalf("create %s: %v", p, err)
			}
		}
		// The root's counter stands at the four creates.
		name := znode.SequentialName("/seq-", 4)
		shard := core.ShardOf(name, 4)
		multi := func(anchor string) ([]txn.Result, error) {
			return c.Multi(
				txn.Create("/seq-", []byte("x"), znode.FlagSequential),
				txn.SetData(anchor, []byte("x"), 0),
			)
		}
		results, err := multi(anchors[(shard+1)%4])
		if !errors.Is(err, core.ErrCrossShard) {
			t.Errorf("multi drifting onto shard %d: %v, want ErrCrossShard", shard, err)
			return
		}
		if results[0].Code != txn.CodeAborted || results[1].Code != string(core.CodeCrossShard) {
			t.Errorf("results = %+v, want [txn_aborted cross_shard]", results)
		}
		if st, err := c.Exists(name); err != nil || st != nil {
			t.Errorf("%s after the rejection: %v (%v)", name, st, err)
		}
		results, err = multi(anchors[shard])
		if err != nil {
			t.Errorf("multi on the name's own shard: %v", err)
			return
		}
		if p := results[0].Path; p != name || int(results[0].Txid%4) != shard {
			t.Errorf("create %s committed under shard %d; want %s under shard %d", p, results[0].Txid%4, name, shard)
		}
		if data, _, err := c.GetData(name); err != nil || string(data) != "x" {
			t.Errorf("read %s: %q (%v)", name, data, err)
		}
	})
}

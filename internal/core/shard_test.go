package core

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"faaskeeper/internal/cloud"
	"faaskeeper/internal/cloud/kv"
	"faaskeeper/internal/fksync"
	"faaskeeper/internal/sim"
	"faaskeeper/internal/znode"
)

// TestShardOfParentChildColocated: the routing invariant everything rests
// on — a node and every descendant map to the same shard, for any shard
// count, so no create/delete/sequential-counter operation spans shards.
func TestShardOfParentChildColocated(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	segs := []string{"a", "services", "locks", "config", "t17", "x-y_z", "0"}
	for iter := 0; iter < 2000; iter++ {
		// Build a random path of depth 1..5.
		depth := 1 + r.Intn(5)
		path := ""
		for i := 0; i < depth; i++ {
			path += "/" + segs[r.Intn(len(segs))] + fmt.Sprint(r.Intn(4))
		}
		for _, n := range []int{1, 2, 3, 4, 8, 16} {
			got := ShardOf(path, n)
			if got < 0 || got >= n {
				t.Fatalf("ShardOf(%q, %d) = %d out of range", path, n, got)
			}
			parent := znode.Parent(path)
			if parent != znode.Root {
				if p := ShardOf(parent, n); p != got {
					t.Fatalf("parent %q on shard %d, child %q on shard %d (n=%d)",
						parent, p, path, got, n)
				}
			}
		}
	}
}

// TestShardOfSingleShardAndRoot: the degenerate cases are pinned — one
// shard routes everything to 0, and the root itself lives on shard 0.
func TestShardOfSingleShardAndRoot(t *testing.T) {
	for _, p := range []string{"/", "/a", "/a/b/c", "/deep/er/path"} {
		if s := ShardOf(p, 1); s != 0 {
			t.Errorf("ShardOf(%q, 1) = %d, want 0", p, s)
		}
	}
	for _, n := range []int{1, 2, 8} {
		if s := ShardOf(znode.Root, n); s != 0 {
			t.Errorf("ShardOf(/, %d) = %d, want 0", n, s)
		}
	}
}

// TestShardOfDeterministicAndSpread: routing is a pure function (client
// and follower compute it independently) and a modest number of subtrees
// populates every shard.
func TestShardOfDeterministicAndSpread(t *testing.T) {
	if ShardOf("/a/b", 8) != ShardOf("/a/b", 8) {
		t.Fatal("ShardOf not deterministic")
	}
	const n = 8
	seen := map[int]bool{}
	for i := 0; i < 200; i++ {
		seen[ShardOf(fmt.Sprintf("/t%d", i), n)] = true
	}
	if len(seen) != n {
		t.Errorf("200 subtrees hit only %d of %d shards", len(seen), n)
	}
}

// TestShardTxidUniqueAndOrdered: txids from different shards never
// collide, stay strictly increasing within a shard, and collapse to the
// raw queue sequence number in the single-shard configuration.
func TestShardTxidUniqueAndOrdered(t *testing.T) {
	const n = 8
	seen := map[int64]bool{}
	for shard := 0; shard < n; shard++ {
		prev := int64(-1)
		for seq := int64(1); seq <= 100; seq++ {
			txid := shardTxid(seq, shard, n)
			if seen[txid] {
				t.Fatalf("txid %d collides (shard %d seq %d)", txid, shard, seq)
			}
			seen[txid] = true
			if txid <= prev {
				t.Fatalf("txid not increasing within shard %d: %d after %d", shard, txid, prev)
			}
			prev = txid
		}
	}
	for seq := int64(1); seq <= 10; seq++ {
		if shardTxid(seq, 0, 1) != seq {
			t.Fatal("single-shard txid must equal the queue sequence number")
		}
	}
}

// TestDeploymentProvisionsShards: the deployment wires one ordered queue
// per shard, keeps the paper's queue name for the single-shard layout, and
// defaults to one shard.
func TestDeploymentProvisionsShards(t *testing.T) {
	_, d := newTestDeployment(11, Config{})
	if d.NumShards() != 1 || d.LeaderQs[0].Name() != "leader" {
		t.Fatalf("default deployment: %d shards, queue %q", d.NumShards(), d.LeaderQs[0].Name())
	}
	_, d4 := newTestDeployment(12, Config{WriteShards: 4})
	if d4.NumShards() != 4 {
		t.Fatalf("NumShards = %d, want 4", d4.NumShards())
	}
	for i, q := range d4.LeaderQs {
		if q.Name() != fmt.Sprintf("leader-%d", i) {
			t.Errorf("shard %d queue named %q", i, q.Name())
		}
		if !q.Ordered() {
			t.Errorf("shard %d queue not ordered", i)
		}
	}
}

// rootRecStore logs every mutation of one region's user store: the path,
// the process that made it, and the root lock's holder (its acquisition
// timestamp, 0 when free) as the call starts and as it lands.
type rootRecStore struct {
	UserStore
	d     *Deployment
	calls *[]rootCall
}

type rootCall struct {
	region             cloud.Region
	path               string
	proc               string // the process that made it: its name and id
	procID             int64
	lockedAt, lockedTo int64
}

func (s *rootRecStore) rootLock() int64 {
	it, ok := s.d.System.Peek(rootUpdateLockKey)
	if !ok {
		return 0
	}
	v, ok := it.Lookup(fksync.LockAttr)
	if !ok {
		return 0
	}
	return v.Num()
}

func (s *rootRecStore) record(path string, call func() error) error {
	p := s.d.K.Current()
	c := rootCall{region: s.Region(), path: path, proc: p.Name(), procID: p.ID(), lockedAt: s.rootLock()}
	err := call()
	c.lockedTo = s.rootLock()
	*s.calls = append(*s.calls, c)
	return err
}

func (s *rootRecStore) Write(ctx cloud.Ctx, o Object) error {
	return s.record(o.Path, func() error { return s.UserStore.Write(ctx, o) })
}

func (s *rootRecStore) Delete(ctx cloud.Ctx, path string) error {
	return s.record(path, func() error { return s.UserStore.Delete(ctx, path) })
}

// TestSharedRootSplicedInEachLeg: on two shards and two regions, two
// sessions create top-level nodes on both shards and delete half of them,
// all pipelined, and one writes the root's data among them. In every region
// the root object ends with the written data, version and mzxid, exactly
// the live children, the system store's Cversion (one per change) and the
// highest txid of any change as its Pzxid: the data write keeps the child
// list its region's object had (sharedObject). The system record and every object keep
// one child stamp per shard, that shard's highest txid (childStamps,
// znode.Node.Pzxids): each shard sets or raises only its own. Each region's
// flush leg splices the root itself: its last store write is the root's,
// after the leg's child writes, and the root lock has one holder from that
// write's start to its landing. No process but a leg touches a user store, so no
// leader-root-<region> process runs.
func TestSharedRootSplicedInEachLeg(t *testing.T) {
	for _, batch := range []bool{false, true} {
		t.Run(fmt.Sprintf("batch=%v", batch), func(t *testing.T) {
			hook := &pipeFaults{}
			var procs []string
			hook.hold = func(proc string) sim.Time {
				procs = append(procs, proc)
				return 0
			}
			r := newPipeRig(t, 31, Config{WriteShards: 2, ExtraRegions: []cloud.Region{cloud.RegionAWSRemote}, BatchWrites: batch}, hook)
			var calls []rootCall
			for i, s := range r.d.Stores {
				r.d.Stores[i] = &rootRecStore{UserStore: s, d: r.d, calls: &calls}
				for _, ls := range r.d.leaders {
					ls.legs[i].store = r.d.Stores[i]
				}
			}

			const perSession = 6
			live := map[string]bool{}
			shards := map[int]bool{}
			var changes int32
			var pzxid, setTxid int64
			stamps := make([]int64, 2) // per shard
			roots := make([]*znode.Node, len(r.d.Stores))
			r.k.Go("driver", func() {
				wg := sim.NewWaitGroup(r.k)
				for _, id := range []string{"a", "b"} {
					wg.Go("session-"+id, func() {
						s := r.open(id)
						var futs []*sim.Future[Response]
						for i := 0; i < perSession; i++ {
							path := fmt.Sprintf("/%s%d", id, i)
							shards[ShardOf(path, 2)] = true
							futs = append(futs, s.submit(OpCreate, path, "x"))
							live[path] = i%2 == 1
						}
						var set *sim.Future[Response]
						if id == "a" {
							set = s.submit(OpSetData, znode.Root, "root")
						}
						for i := 0; i < perSession; i += 2 {
							futs = append(futs, s.submit(OpDelete, fmt.Sprintf("/%s%d", id, i), ""))
						}
						if set != nil {
							if resp := set.Wait(); resp.Code != CodeOK {
								t.Errorf("set /: %s", resp.Code)
							} else {
								setTxid = resp.Txid
							}
						}
						for _, f := range futs {
							resp := f.Wait()
							if resp.Code != CodeOK {
								t.Errorf("%s seq %d: %s", id, resp.Seq, resp.Code)
							}
							changes++
							pzxid = max(pzxid, resp.Txid)
							stamps[resp.Txid%2] = max(stamps[resp.Txid%2], resp.Txid)
						}
					})
				}
				wg.Wait()
				for i, s := range r.d.Stores {
					n, _, err := s.Read(cloud.ClientCtx(s.Region()), znode.Root)
					if err != nil {
						t.Errorf("%s: read root: %v", s.Region(), err)
					}
					roots[i] = n
				}
			})
			r.run()

			if len(shards) != 2 {
				t.Fatalf("the paths reach shards %v, want both", shards)
			}
			var want []string
			for p, ok := range live {
				if ok {
					want = append(want, p[1:])
				}
			}
			slices.Sort(want)
			item, _ := r.d.System.Peek(znode.Root)
			sys := decodeSysNode(item)
			if sys.Cversion != changes {
				t.Errorf("system root: cversion %d, want %d", sys.Cversion, changes)
			}
			if got := r.d.childStamps(item); !slices.Equal(got, stamps) || sys.Pzxid != pzxid {
				t.Errorf("system root: child stamps %v pzxid %d, want %v %d", got, sys.Pzxid, stamps, pzxid)
			}
			for i, n := range roots {
				region := r.d.Stores[i].Region()
				if n == nil {
					continue
				}
				got := slices.Clone(n.Children)
				slices.Sort(got)
				if !slices.Equal(got, want) || n.Stat.NumChildren != int32(len(want)) {
					t.Errorf("%s: root children %v (%d), want %v", region, n.Children, n.Stat.NumChildren, want)
				}
				if string(n.Data) != "root" || n.Stat.Version != 1 || n.Stat.Mzxid != setTxid {
					t.Errorf("%s: root data %q version %d mzxid %d, want %q 1 %d", region, n.Data, n.Stat.Version, n.Stat.Mzxid, "root", setTxid)
				}
				if n.Stat.Cversion != changes || n.Stat.Pzxid != pzxid || !slices.Equal(n.Pzxids, stamps) {
					t.Errorf("%s: root cversion %d pzxid %d stamps %v, want %d %d %v",
						region, n.Stat.Cversion, n.Stat.Pzxid, n.Pzxids, changes, pzxid, stamps)
				}
			}

			// Per leg process, in the order its store ops landed.
			legs := map[int64][]rootCall{}
			var order []int64
			for _, c := range calls {
				if _, seen := legs[c.procID]; !seen {
					order = append(order, c.procID)
				}
				legs[c.procID] = append(legs[c.procID], c)
			}
			rootWrites := map[cloud.Region]int{}
			for _, p := range order {
				cs := legs[p]
				region := cs[0].region
				if want := "leader-update-" + string(region); cs[0].proc != want {
					t.Errorf("%s wrote %s's store, want only %s", cs[0].proc, region, want)
				}
				last := cs[len(cs)-1]
				if last.path != znode.Root {
					t.Errorf("%s: the leg's last store write is %s, want the root after its child writes %v", region, last.path, cs)
				}
				for _, c := range cs {
					if c.region != region {
						t.Errorf("one leg wrote to %s and %s", region, c.region)
					}
					if c.path != znode.Root {
						continue
					}
					rootWrites[region]++
					if c.lockedAt == 0 || c.lockedTo != c.lockedAt {
						t.Errorf("%s: root written with the root lock at %d as it started and %d as it landed, want one holder throughout", region, c.lockedAt, c.lockedTo)
					}
				}
			}
			for _, s := range r.d.Stores {
				if rootWrites[s.Region()] == 0 {
					t.Errorf("%s: the root was never written", s.Region())
				}
			}
			for _, name := range procs {
				if strings.HasPrefix(name, "leader-root-") {
					t.Fatalf("a %s process ran: the root's splice belongs to the leg", name)
				}
			}
		})
	}
}

// TestAtRestFlagsEachDisagreement: the at-rest audit is clean on a fresh
// two-shard deployment and names each planted disagreement between the
// system store and the user store: a record without its object, a stale
// object, a shared root whose object lacks a shard's child stamp, an epoch
// entry stranded by a delivery that never exited, a record listing a child
// that has no record, and an object stored under another path.
func TestAtRestFlagsEachDisagreement(t *testing.T) {
	k, d := newTestDeployment(3, Config{WriteShards: 2})
	ctx := cloud.ClientCtx(d.Cfg.Profile.Home)
	var clean, planted []string
	k.Go("audit", func() {
		clean = d.AtRest(ctx)
		d.System.SeedPut("/gone", kv.Item{{Name: attrExists, V: kv.N(1)}, {Name: attrMzxid, V: kv.N(4)}})
		d.System.SeedPut("/stale", kv.Item{{Name: attrExists, V: kv.N(1)}, {Name: attrVersion, V: kv.N(2)}})
		d.Stores[0].Seed(&znode.Node{Path: "/stale", Stat: znode.Stat{Version: 1}})
		root, _ := d.System.Peek(znode.Root)
		root.Set(d.pzxidAttrs[1], kv.N(7))
		d.System.SeedPut(znode.Root, root)
		// A stranded entry: shard 1's delivery of txid 5 died before its exit.
		d.System.SeedPut(d.epochKey(d.Cfg.Profile.Home), kv.Item{{Name: string(appendEntryName(nil, entryPrefix(1), 5, 0)), V: kv.N(9)}})
		d.System.SeedPut("/orphans", kv.Item{{Name: attrExists, V: kv.N(1)}, {Name: attrChildren, V: kv.StrList("ghost")}})
		d.Stores[0].Seed(&znode.Node{Path: "/orphans", Children: []string{"ghost"}})
		d.System.SeedPut("/moved", kv.Item{{Name: attrExists, V: kv.N(1)}})
		d.Stores[0].(*objectStore).bucket.SeedPut("/moved", znode.Marshal(&znode.Node{Path: "/elsewhere"}, nil))
		planted = d.AtRest(ctx)
	})
	k.Run()
	k.Shutdown()
	if len(clean) != 0 {
		t.Errorf("a fresh deployment is not at rest: %v", clean)
	}
	for _, want := range []string{"/gone in", "/stale in", "/ in", "epoch:", "/orphans: record lists child ghost", "/moved in"} {
		if !slices.ContainsFunc(planted, func(f string) bool { return strings.HasPrefix(f, want) }) {
			t.Errorf("no finding starts with %q: %v", want, planted)
		}
	}
	if len(planted) != 6 {
		t.Errorf("%d findings, want 6: %v", len(planted), planted)
	}
}

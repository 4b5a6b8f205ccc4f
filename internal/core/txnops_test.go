package core

// Tests of multi() on the leader and at the follower: the commit check, the
// one-item commit, and the determinate answer to a multi() whose effectful
// ops span shards. They drive the deployment through pipeline_test.go's
// in-package session and read the system store directly.

import (
	"fmt"
	"maps"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"faaskeeper/internal/cloud"
	"faaskeeper/internal/cloud/kv"
	"faaskeeper/internal/fksync"
	"faaskeeper/internal/obs"
	"faaskeeper/internal/sim"
	"faaskeeper/internal/txn"
	"faaskeeper/internal/znode"
)

// TestMultiCrossShardRejected: a multi() whose effectful ops resolve onto
// two shards is answered at the follower. The first op on the second shard
// carries cross_shard, every other op txn_aborted, and nothing is left
// behind: no lock or pending entry on any item, no message in any leader
// queue (each shard's next write takes the txid right after its last), and
// the create's parent keeps its child version and sequence counter. A check
// on a third shard does not count: the locks prove it.
func TestMultiCrossShardRejected(t *testing.T) {
	const shards = 4
	var paths []string // one top-level path per shard, in shard order
	for i := 0; len(paths) < shards; i++ {
		if p := fmt.Sprintf("/n%d", i); ShardOf(p, shards) == len(paths) {
			paths = append(paths, p)
		}
	}
	pA, pB, pC := paths[0], paths[1], paths[2]
	r := newPipeRig(t, 31, Config{WriteShards: shards}, &pipeFaults{})
	r.k.Go("main", func() {
		s := r.open("w")
		txids := map[string]int64{}
		for _, p := range paths[:3] {
			txids[p] = s.do(OpCreate, p, "0").Txid
		}
		before := r.sysNode(pB)
		ops := []txn.Op{
			txn.SetData(pA, []byte("1"), -1),
			txn.Check(pC, -1),
			txn.Create(pB+"/q-", []byte("1"), znode.FlagSequential),
			txn.SetData(pB, []byte("1"), -1),
		}
		resp := s.send(Request{Op: OpMulti, Path: pA, Data: txn.EncodeOps(ops)}).Wait()
		if resp.Code != CodeCrossShard {
			t.Errorf("multi over two shards answered %s, want %s", resp.Code, CodeCrossShard)
		}
		want := []string{txn.CodeAborted, txn.CodeAborted, string(CodeCrossShard), txn.CodeAborted}
		for i, res := range resp.MultiResults {
			if res.Code != want[i] {
				t.Errorf("op %d (%s %s) carries %s, want %s", i, res.Type, res.Path, res.Code, want[i])
			}
		}
		after := r.sysNode(pB)
		if after.Cversion != before.Cversion || after.SeqCtr != before.SeqCtr {
			t.Errorf("%s: cversion %d, seq %d after the rejection; want %d, %d", pB, after.Cversion, after.SeqCtr, before.Cversion, before.SeqCtr)
		}
		for _, p := range paths[:3] {
			if got := s.do(OpSetData, p, "2").Txid; got != txids[p]+shards {
				t.Errorf("%s: next write committed at txid %d after %d: a leader message was pushed in between", p, got, txids[p])
			}
		}
		r.k.Sleep(sim.Ms(200))
		r.settle()
		if res := txnResidue(r.d, s.ctx); len(res) > 0 {
			t.Errorf("left behind: %v", res)
		}
	})
	r.run()
}

// TestOneItemMultiCommitsWithOneUpdate: a multi() that locked one item —
// set /a, or check /a and set /a — commits as a set_data does, with one
// conditional update and no transaction: at the follower, and in the
// leader's replay for a follower that died at its crash point. Here a
// system-store transaction takes an hour (KVTxPenalty), so an answer within
// a minute is one no transaction delayed.
func TestOneItemMultiCommitsWithOneUpdate(t *testing.T) {
	set := []txn.Op{txn.SetData("/a", []byte("1"), -1)}
	checkSet := []txn.Op{txn.Check("/a", 0), txn.SetData("/a", []byte("1"), 0)}
	for _, tc := range []struct {
		name  string
		ops   []txn.Op
		crash bool // the follower dies between its push and its commit
	}{
		{"set", set, false},
		{"check, set", checkSet, false},
		{"set, replayed", set, true},
		{"check, set, replayed", checkSet, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			crashed := false
			hook := &pipeFaults{crash: func(stage, _ string, _ int64) bool {
				if !tc.crash || stage != obs.StageTxnPrep || crashed {
					return false
				}
				crashed = true
				return true
			}}
			r := newPipeRig(t, 11, Config{}, hook)
			var resp Response
			var took sim.Time
			var a sysNode
			r.k.Go("client", func() {
				s := r.open("w")
				s.do(OpCreate, "/a", "0")
				r.k.Sleep(sim.Ms(1000))
				r.d.Env.Profile.KVTxPenalty = sim.Const(time.Hour)
				t0 := r.k.Now()
				resp = s.send(Request{Op: OpMulti, Path: "/a", Data: txn.EncodeOps(tc.ops)}).Wait()
				took = r.k.Now() - t0
				r.k.Sleep(sim.Ms(200))
				r.settle()
				a = r.sysNode("/a")
				if res := txnResidue(r.d, s.ctx); len(res) > 0 {
					t.Errorf("left behind: %v", res)
				}
			})
			r.run()
			if crashed != tc.crash || resp.Code != CodeOK || a.Version != 1 {
				t.Fatalf("crashed %v, answered %s, /a at version %d; want crashed %v, ok, version 1", crashed, resp.Code, a.Version, tc.crash)
			}
			if took > time.Minute {
				t.Errorf("answered after %v: the commit ran a transaction", took)
			}
		})
	}
}

// TestCommitScratchKeepsNoView: a commit's update actions live in a pooled
// scratch (commitScratch), and the items it commits owe it nothing. Two
// multi()s that put two changes on one item — set_data after set_data, and
// a create then a set_data — commit exactly the items they committed while
// every action was a box of its own (pinned below, attribute order
// included), and scribbling over the scratch afterwards, as its next commit
// would, leaves every stored item as it was.
func TestCommitScratchKeepsNoView(t *testing.T) {
	if sim.PoolDropsPuts() {
		t.Skip("sync.Pool drops what it is handed (the race detector does this to a quarter of all puts): the test cannot take back the commits' scratch")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1)) // one P: the pool hands back the scratch the commits used
	root := `{children: ["a"], cversion: 1, exists: 1, pzxid: 1, seq: 1} [exists children cversion seq pzxid]`
	for _, tc := range []struct {
		name string
		ops  []txn.Op
		want map[string]string
	}{
		{"set, set", []txn.Op{txn.SetData("/a", []byte("1"), -1), txn.SetData("/a", []byte("2"), -1)}, map[string]string{
			"/": root,
			"/a": `{children: [], cversion: 0, czxid: 1, exists: 1, mzxid: 2, pending: [2], pzxid: 1, version: 2} ` +
				`[exists version cversion czxid mzxid pzxid children pending]`,
		}},
		{"create, set", []txn.Op{txn.Create("/a/b", []byte("1"), 0), txn.SetData("/a/b", []byte("2"), -1)}, map[string]string{
			"/": root,
			"/a": `{children: ["b"], cversion: 1, czxid: 1, exists: 1, mzxid: 1, pending: [], pzxid: 2, seq: 1, version: 0} ` +
				`[exists version cversion czxid mzxid pzxid children pending seq]`,
			"/a/b": `{children: [], cversion: 0, czxid: 2, exists: 1, mzxid: 2, pending: [2], pzxid: 2, version: 1} ` +
				`[exists version cversion czxid mzxid pzxid children pending]`,
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := newPipeRig(t, 11, Config{}, nil)
			items := func() map[string]string {
				out := map[string]string{}
				for path := range tc.want {
					it, _ := r.d.System.Peek(path)
					names := make([]string, len(it))
					for i, a := range it {
						names[i] = a.Name
					}
					out[path] = fmt.Sprint(it, " ", names)
				}
				return out
			}
			r.k.Go("client", func() {
				s := r.open("w")
				s.do(OpCreate, "/a", "0")
				resp := s.send(Request{Op: OpMulti, Path: "/a", Data: txn.EncodeOps(tc.ops)}).Wait()
				// The leader carries the multi()'s pop to its next
				// invocation, so its pending entry is still in place.
				got := items()
				if resp.Code != CodeOK || !maps.Equal(got, tc.want) {
					t.Errorf("answered %s, committed %v; want ok, %v", resp.Code, got, tc.want)
				}
				sc := commitScratchPool.Get().(*commitScratch)
				if cap(sc.sets) == 0 || cap(sc.ups) == 0 {
					t.Error("the pool handed back a scratch no commit used")
				}
				junk := kv.Set{Name: attrChildren, V: kv.StrList("junk")}
				for i := range sc.sets[:cap(sc.sets)] {
					sc.sets[:cap(sc.sets)][i] = junk
				}
				for i := range sc.ups[:cap(sc.ups)] {
					sc.ups[:cap(sc.ups)][i] = junk
				}
				sc.txid[0], sc.pending.Name = -1, "junk"
				sc.release()
				if after := items(); !maps.Equal(after, got) {
					t.Errorf("after the scratch was reused the store holds %v, want %v", after, got)
				}
				r.settle()
			})
			r.run()
		})
	}
}

// sysNode reads path's control record. It must run inside a sim process.
func (r *pipeRig) sysNode(path string) sysNode {
	it, _ := r.d.System.GetView(cloud.ClientCtx(r.d.Cfg.Profile.Home), path, true)
	return decodeSysNode(it, 0)
}

// txnResidue lists what no finished multi() may leave behind on a node
// item: a held lock or a pending entry.
func txnResidue(d *Deployment, ctx cloud.Ctx) []string {
	var out []string
	for _, ki := range d.System.Scan(ctx) {
		if !strings.HasPrefix(ki.Key, "/") {
			continue
		}
		if _, locked := ki.Item.Lookup(fksync.LockAttr); locked || len(decodeSysNode(ki.Item, 0).Pending) > 0 {
			out = append(out, ki.Key+" "+ki.Item.String())
		}
	}
	return out
}

// pushMulti is the follower's half of a multi() setting each of paths to
// data by s, through its commit under txid: lock every path, validate,
// commit them in one transaction. It returns the leader message, with s
// waiting for the answer.
func (r *pipeRig) pushMulti(s *pipeSession, txid int64, data string, paths ...string) leaderMsg {
	r.t.Helper()
	s.seq++
	msg := leaderMsg{Session: s.id, Seq: s.seq, change: change{Op: OpMulti, Path: paths[0]}, ItemPaths: paths}
	for _, p := range paths {
		lock, item, err := r.d.Locks.Acquire(s.ctx, p)
		if err != nil {
			r.t.Fatalf("lock %s: %v", p, err)
		}
		msg.ItemLockTs = append(msg.ItemLockTs, lock.Timestamp)
		msg.Ops = append(msg.Ops, validatedChange(OpSetData, p, []byte(data), "", decodeSysNode(item, 0), sysNode{}))
	}
	if err := r.d.replayCommit(s.ctx, msg, txid); err != nil {
		r.t.Fatalf("commit: %v", err)
	}
	s.futs[s.seq] = sim.NewFuture[Response](r.k)
	return msg
}

// TestTxnCommitCheck is TestOpeningReadFeedsAwaitCommit for a multi()
// message: it delivers one multi() setting /a and /b to the handler
// by hand, in the states a first or repeated delivery can find the two
// pending lists in, and checks the leader's commit check (➊/➋) against each
// — an orphan pop ends its poll and the next one reads only the target not
// confirmed yet, a message whose entry is already consumed is answered at
// once, and a coordinator that died after its push is replayed at the third
// poll. A committed multi()'s pops are carried to the next invocation, one
// per target, as a single op's is.
func TestTxnCommitCheck(t *testing.T) {
	const txid = 9
	commit := func(d *Deployment, ctx cloud.Ctx, msg leaderMsg) {
		if err := d.replayCommit(ctx, msg, txid); err != nil {
			t.Errorf("commit: %v", err)
		}
	}
	for _, tc := range []struct {
		name string
		// between is what happened between the coordinator's push and this
		// delivery; until its commit the coordinator holds both locks.
		between func(d *Deployment, ctx cloud.Ctx, msg leaderMsg)

		code               Code
		reads, writes      int64 // the handler's system-store operations
		pendingA, pendingB []int64
		stored             bool // the user store received the transaction
	}{
		{
			name: "orphan below txid on one target",
			between: func(d *Deployment, ctx cloud.Ctx, msg leaderMsg) {
				_, _ = d.System.Update(ctx, "/b", []kv.Update{kv.ListAppend{Name: attrPending, Vals: []int64{5}}}, nil)
				commit(d, ctx, msg)
			},
			// /a and /b, whose orphan's pop ends the poll; /b again. The
			// opening read reads nothing: the invocation before left the
			// epoch lists empty, and a multi() polls its targets itself.
			// Both pops are carried.
			code: CodeOK, reads: 3, writes: 1, pendingA: []int64{txid}, pendingB: []int64{txid}, stored: true,
		},
		{
			name: "delivered again after its pop",
			between: func(d *Deployment, ctx cloud.Ctx, msg leaderMsg) {
				commit(d, ctx, msg)
				for _, p := range []string{"/a", "/b"} {
					_, _ = d.System.Update(ctx, p, []kv.Update{kv.ListPopHead{Name: attrPending}}, nil)
				}
				_, _ = d.System.Update(ctx, "/a", []kv.Update{kv.ListAppend{Name: attrPending, Vals: []int64{12}}}, nil)
			},
			// /a, whose head is past txid.
			code: CodeSystemError, reads: 1, writes: 0, pendingA: []int64{12},
		},
		{
			name:    "the coordinator died after its push",
			between: func(*Deployment, cloud.Ctx, leaderMsg) {},
			// Four polls of both targets with the replayed commit after the
			// third; the replay (a write per item). Both pops are carried.
			code: CodeOK, reads: 8, writes: 2, pendingA: []int64{txid}, pendingB: []int64{txid}, stored: true,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := newPipeRig(t, 23, Config{}, &pipeFaults{})
			d := r.d
			var s *pipeSession
			var resp Response
			var reads, writes int64
			r.k.Go(leaderProc, func() {
				s = r.open("w")
				s.do(OpCreate, "/a", "0")
				s.do(OpCreate, "/b", "0")
				r.k.Sleep(sim.Ms(200))
				r.settle()

				// The coordinator's half of the multi(), up to the push.
				msg := leaderMsg{Session: s.id, Seq: 3, change: change{Op: OpMulti, Path: "/a"}, ItemPaths: []string{"/a", "/b"}}
				for _, p := range msg.ItemPaths {
					lock, item, err := d.Locks.Acquire(s.ctx, p)
					if err != nil {
						t.Errorf("lock %s: %v", p, err)
						return
					}
					msg.ItemLockTs = append(msg.ItemLockTs, lock.Timestamp)
					msg.Ops = append(msg.Ops, validatedChange(OpSetData, p, []byte("1"), "", decodeSysNode(item, 0), sysNode{}))
				}
				tc.between(d, s.ctx, msg)
				s.seq = msg.Seq
				s.futs[s.seq] = sim.NewFuture[Response](r.k)

				r0, w0 := syskv(d)
				r.deliver(s.ctx, txid, msg)
				r1, w1 := syskv(d)
				reads, writes = r1-r0, w1-w0
				resp = s.futs[s.seq].Wait()
				r.k.Sleep(sim.Ms(200))
			})
			r.run()

			if resp.Code != tc.code || s.resps != 3 {
				t.Errorf("answered %s, %d responses in all; want %s and exactly one for each of the three requests", resp.Code, s.resps, tc.code)
			}
			if reads != tc.reads || writes != tc.writes {
				t.Errorf("the handler made %d system-store reads and %d writes, want %d and %d", reads, writes, tc.reads, tc.writes)
			}
			it, _ := d.System.Peek("/a")
			if got := decodeSysNode(it, 0).Pending; !slices.Equal(got, tc.pendingA) {
				t.Errorf("/a's pending list ends as %v, want %v", got, tc.pendingA)
			}
			it, _ = d.System.Peek("/b")
			if got := decodeSysNode(it, 0).Pending; !slices.Equal(got, tc.pendingB) {
				t.Errorf("/b's pending list ends as %v, want %v", got, tc.pendingB)
			}
			if r.carried(txid) != tc.stored {
				t.Errorf("the multi()'s pops carried: %v, want %v", r.carried(txid), tc.stored)
			}
			stored := slices.ContainsFunc(r.calls, func(c storeCall) bool { return c.mzxid == txid })
			if stored != tc.stored {
				t.Errorf("user store written: %v, want %v", stored, tc.stored)
			}
		})
	}
}

// TestMultiLeavesStoredChildListAlone: a plan's speculative child list
// starts as a view of table storage (decodeSysNode), which plan.validate
// must copy before it splices. A multi() that creates and deletes under
// one parent, in either order, and then fails its last check leaves the
// parent's stored list as it was. The delete's copy is what the second
// order tests: deleting in place would shift the stored names. (The
// create's append always copies a view, whose capacity is its length: a
// kv.Value keeps none.)
func TestMultiLeavesStoredChildListAlone(t *testing.T) {
	create, del, fail := txn.Create("/p/x", nil, 0), txn.Delete("/p/a", -1), txn.Check("/p", 99)
	for _, tc := range []struct {
		name string
		ops  []txn.Op
	}{
		{"create, delete", []txn.Op{create, del, fail}},
		{"delete, create", []txn.Op{del, create, fail}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := newPipeRig(t, 1, Config{}, nil)
			var resp Response
			var list, before []string
			r.k.Go("client", func() {
				s := r.open("w")
				for _, p := range []string{"/p", "/p/a", "/p/b", "/p/c"} {
					s.do(OpCreate, p, "")
				}
				list = r.sysNode("/p").Children
				before = slices.Clone(list)
				resp = s.send(Request{Op: OpMulti, Path: "/p", Data: txn.EncodeOps(tc.ops)}).Wait()
			})
			r.run()
			if resp.Code != CodeBadVersion {
				t.Fatalf("multi() answered %s, want %s", resp.Code, CodeBadVersion)
			}
			if !slices.Equal(before, []string{"a", "b", "c"}) || !slices.Equal(list, before) {
				t.Errorf("the multi() wrote into the stored child list: %q, was %q", list, before)
			}
			if it, _ := r.d.System.Peek("/p"); !slices.Equal(it.Get(attrChildren).SL(), before) {
				t.Errorf("stored children %q, want %q", it.Get(attrChildren).SL(), before)
			}
		})
	}
}

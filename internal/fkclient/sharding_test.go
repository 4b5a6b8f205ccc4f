package fkclient

// Tests of the sharded write path from the client's perspective: the
// determinism guard (WriteShards: 1 is byte-identical to the default
// pipeline), per-session FIFO delivery at every shard count, and watch
// delivery across shards.

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"testing"

	"faaskeeper/internal/core"
	"faaskeeper/internal/histcheck"
	"faaskeeper/internal/sim"
	"faaskeeper/internal/txn"
	"faaskeeper/internal/znode"
)

// shardedPaths returns one top-level path per requested shard residue so a
// test can deliberately alternate shards (computed, not hard-coded, so a
// routing change cannot silently weaken the tests).
func shardedPaths(n, count int) []string {
	paths := make([]string, 0, count)
	next := 0
	for len(paths) < count {
		p := fmt.Sprintf("/p%d", next)
		next++
		if core.ShardOf(p, n) == len(paths)%n {
			paths = append(paths, p)
		}
	}
	return paths
}

// traceWorkload drives a fixed mixed workload and renders every
// client-visible outcome with its virtual timestamp into a byte trace.
func traceWorkload(t *testing.T, cfg core.Config) []byte {
	t.Helper()
	var buf bytes.Buffer
	k := sim.NewKernel(1234)
	d := core.NewDeployment(k, cfg)
	k.Go("trace", func() {
		c, err := Connect(d, "tracer", d.Cfg.Profile.Home)
		if err != nil {
			t.Errorf("connect: %v", err)
			return
		}
		record := func(op string, path string, st znode.Stat, err error) {
			fmt.Fprintf(&buf, "%d %s %s v=%d mzxid=%d err=%v\n",
				k.Now(), op, path, st.Version, st.Mzxid, err)
		}
		p, err := c.Create("/a", []byte("1"), 0)
		record("create", p, znode.Stat{}, err)
		p, err = c.Create("/a/x", []byte("2"), 0)
		record("create", p, znode.Stat{}, err)
		st, err := c.SetData("/a/x", []byte("3"), -1)
		record("set", "/a/x", st, err)
		_, _, err = c.GetDataW("/a/x", func(core.Notification) {})
		record("watch", "/a/x", znode.Stat{}, err)
		st, err = c.SetData("/a/x", []byte("4"), -1)
		record("set", "/a/x", st, err)
		p, err = c.Create("/b", nil, znode.FlagSequential)
		record("create-seq", p, znode.Stat{}, err)
		data, st, err := c.GetData("/a/x")
		record("get", "/a/x:"+string(data), st, err)
		err = c.Delete("/a/x", -1)
		record("delete", "/a/x", znode.Stat{}, err)
		err = c.Close()
		record("close", "", znode.Stat{}, err)
	})
	k.Run()
	k.Shutdown()
	return buf.Bytes()
}

// singleShardTraceSHA256 pins the virtual-time trace of the fixed
// workload on the single-shard (paper-faithful) pipeline. Any change that
// drifts the default path — an extra storage round trip, a reordered
// operation, a timing shift, a message that grew by a byte — changes the
// hash. If the drift is intentional, regenerate with the trace printed by
// the failing test, and say here why the new trace is as faithful.
//
// Re-pinned once (from 1571356e…25266e) when encoding/gob left the write
// path and package wire's binary codec became the only format. The paper
// asks for a compact binary payload (Section 4.4), not for gob's per-message
// type descriptors, and queue latency is a function of message size: the
// messages are ~100 B smaller, so the same nine lines (op, path, version,
// mzxid, err all unchanged) land at timestamps each ≤ the old one and
// within 0.05 % of it — last line 1 625 099 562 → 1 624 672 621 ns. The
// Fig. 8/9/11 ordering tests in internal/experiments did not move. The next
// drift should first show in core.TestWireSizesPinned, which names the
// message whose size changed.
//
// Re-pinned a second time (from 72ab4905…64870b) when the leader's
// invocation began with one batched read of the epoch counters and the first
// message's control record instead of two reads in a row, and launched a
// watch delivery ahead of its epoch append (core/leader.go open,
// core/distributor.go flushChunk). Every read, write and condition of
// Algorithm 2 is still there; two of them moved off a critical path. The same
// nine lines land at timestamps each ≤ the old one, by 1 to 34 ms (the
// latency draws are the same stream, dealt to operations in a new order) —
// last line 1 624 672 621 → 1 608 592 418 ns. TestTraceIndependentOfProcessHistory
// below checks the same hash.
//
// Re-pinned a third time (from 268bac67…7fa2) when the pending pop of an
// invocation's last message moved from the end of that invocation to the
// next one, under its flush (core/distributor.go carry). The pop runs with
// its condition and its tombstone collection as before, one invocation
// later. The nine lines keep their content; their timestamps move because
// the latency stream is dealt to operations in a new order (the pop's draw
// now falls inside the next write), not because a write does more: over
// seeds 1…200 this workload ends at 1 604.8 ms on average, against
// 1 608.2 ms before. At this seed the last line moves 1 608 592 418 →
// 1 742 357 962 ns.
//
// Re-pinned a fourth time (from ca246c37…e7e3) when the watch claim began to
// ride the commit check's read (watch registrations live on the node's
// control record): no system-store read runs between a write's flush and its
// answer any more. The nine lines keep their content and land sooner — the
// set of v1 at 806 ms, was 870 — and the last line moves 1 742 357 962 →
// 1 693 502 641 ns.
//
// Re-pinned a fifth time (from 6bc63021…0354) when a fired watch's claim
// writes began to go out as one parallel round: the leader clears the fired
// group and appends its id to the epoch item at once, and joins both before
// the flush (core/leader.go queryWatches, claimRound). Only a write that
// fires a watch runs new code, and here that is the set of v2: it is
// answered 4 122 215 ns sooner, one system-store write off its commit
// phase, and every later line moves by exactly that much. The nine lines
// keep their content; the last moves 1 693 502 641 → 1 689 380 426 ns.
//
// Re-pinned a sixth time (from a2a4626a…af8a) when, on one shard, that
// round began to run under the flush: the leader spawns the clear and the
// append and joins them before the next commit check and before the
// chunk's answers, not before the flush (core/leader.go queryWatches,
// core/distributor.go commitOne and flushChunk). Again only the set of v2
// fires a watch: it is answered 4 785 985 ns sooner, the round's write off
// its path to the flush, and every later line moves by exactly that much.
// The nine lines keep their content; the last moves 1 689 380 426 →
// 1 684 594 441 ns.
//
// Re-pinned a seventh time (from 108c45c3…0dcf) when a warm one-shard
// leader whose last invocation exited cleanly began to skip the epoch item
// in its opening read (core/leader.go open, leaderShard.quiet): every
// invocation after the first reads one item fewer, so the latency stream
// is dealt anew from the second line on. The nine lines keep their
// content; the first keeps its instant, and the last moves 1 684 594 441 →
// 1 525 343 393 ns.
//
// Re-pinned an eighth time (from 28bc68a7…544f) when the leader stopped
// waiting for watch deliveries: each watch function removes its own epoch
// entry, and the leader's invocation returns once it launched them
// (core/leader.go leaderHandler, core/watchheartbeat.go watchHandler).
// Only the second set of /a/x fires a watch. The first five lines keep
// their content and their instants; the sixth (the create-seq) reaches a
// leader no longer busy with that delivery and lands 94.6 ms sooner, and
// every later line moves by a similar amount. The nine lines keep their
// content; the last moves 1 525 343 393 → 1 494 946 542 ns.
//
// Re-pinned a ninth time (from 042e6b77…096b) when the commit began to move
// the groups it fires into per-txid fire records, which its pop removes
// (core/txnops.go itemUpdates, core/leader.go popPending): the claim round
// of the set that fires the watch has no clear left, one system-store write
// fewer, so the latency stream is dealt anew from that set on. The first
// four lines keep their instants; the set lands 23.1 ms later (998 092 668
// → 1 021 204 125 ns). The nine lines keep their content; the last moves
// 1 494 946 542 → 1 427 378 117 ns.
const singleShardTraceSHA256 = "f89371b1ab56c0a4c1e8cd0ad70693999f9413ac334b55985f357c7fe16b8560"

// TestSingleShardTraceIdentical is the determinism guard: an explicit
// WriteShards: 1 deployment must produce a byte-identical virtual-time
// trace to the default configuration, and that trace must match the
// golden hash recorded for the paper-faithful single-queue pipeline.
func TestSingleShardTraceIdentical(t *testing.T) {
	base := traceWorkload(t, core.Config{})
	one := traceWorkload(t, core.Config{WriteShards: 1})
	if !bytes.Equal(base, one) {
		t.Fatalf("WriteShards:1 trace differs from default:\n--- default ---\n%s--- shards=1 ---\n%s", base, one)
	}
	if len(base) == 0 {
		t.Fatal("empty trace")
	}
	if got := fmt.Sprintf("%x", sha256.Sum256(base)); got != singleShardTraceSHA256 {
		t.Fatalf("single-shard trace drifted from the paper-faithful pipeline:\nhash %s (golden %s)\ntrace:\n%s",
			got, singleShardTraceSHA256, base)
	}
}

// concurrentTraceWorkload is traceWorkload's concurrent sibling: three
// sessions start at t=0 and each pipelines create / set ×2 / delete /
// re-create on the same two paths, one of them holding a data watch. The
// single leader queue backs up, so invocations carry several messages and
// same-path transaction chains — the shapes the sequential trace never
// produces. Every response, read and notification is rendered with its
// virtual timestamp, and recorded as a history for histcheck.Check. No
// fault is injected, so every refusal is recorded as definite.
func concurrentTraceWorkload(t *testing.T, cfg core.Config) ([]byte, *histcheck.History) {
	t.Helper()
	var buf bytes.Buffer
	h := &histcheck.History{}
	k := sim.NewKernel(4321)
	d := core.NewDeployment(k, cfg)
	paths := []string{"/s1", "/s2"}
	opName := map[core.OpCode]string{core.OpCreate: "create", core.OpSetData: "set", core.OpDelete: "delete"}
	announces := map[core.EventType]string{core.EventDataChanged: "set", core.EventDeleted: "delete"}
	for i := 0; i < 3; i++ {
		i := i
		id := fmt.Sprintf("c%d", i)
		k.Go("trace-"+id, func() {
			c, err := Connect(d, id, d.Cfg.Profile.Home)
			if err != nil {
				t.Errorf("connect %s: %v", id, err)
				return
			}
			// An acked create or set answers with the node's Stat at its
			// txid; a create's at version 0. The history carries the txid.
			write := func(op core.OpCode, path string, start sim.Time, resp core.Response, err error) {
				if err == nil && op != core.OpDelete && (resp.Stat.Mzxid != resp.Txid || op == core.OpCreate && resp.Stat.Version != 0) {
					t.Errorf("%s %s %s acked at txid %d with mzxid %d, version %d", id, opName[op], path, resp.Txid, resp.Stat.Mzxid, resp.Stat.Version)
				}
				e := histcheck.Event{Session: id, Kind: histcheck.KindWrite, Op: opName[op], Path: path,
					Mzxid: resp.Txid, Version: resp.Stat.Version, Start: start, End: k.Now(), Definite: err != nil}
				if op != core.OpDelete {
					e.Value = id
				}
				if err != nil {
					e.Err = err.Error()
				}
				h.Add(e)
			}
			// The first create of each path is synchronous so the watch
			// below has a node to attach to; everything after is pipelined.
			for _, p := range paths {
				start := k.Now()
				resp, err := c.await(c.submitWrite(core.OpCreate, p, []byte(id), -1, 0))
				fmt.Fprintf(&buf, "%d %s create %s err=%v\n", k.Now(), id, p, err)
				write(core.OpCreate, p, start, resp, err)
			}
			if i == 0 {
				start := k.Now()
				_, st, err := c.GetDataW(paths[0], func(n core.Notification) {
					fmt.Fprintf(&buf, "%d %s notify %s ev=%v txid=%d\n", k.Now(), id, n.Path, n.Event, n.Txid)
					h.Add(histcheck.Event{Session: id, Kind: histcheck.KindWatchFire, Op: announces[n.Event], Path: n.Path,
						Mzxid: n.Txid, WatchID: n.WatchID, Start: k.Now(), End: k.Now()})
				})
				fmt.Fprintf(&buf, "%d %s watch %s v=%d mzxid=%d err=%v\n", k.Now(), id, paths[0], st.Version, st.Mzxid, err)
				if err == nil {
					h.Add(histcheck.Event{Session: id, Kind: histcheck.KindWatchArm, Path: paths[0], Mzxid: st.Mzxid,
						WatchID: core.WatchID(paths[0], core.WatchData), Start: start, End: k.Now()})
				}
			}
			type sub struct {
				op    core.OpCode
				path  string
				start sim.Time
				fut   *sim.Future[core.Response]
			}
			var subs []sub
			for j := range paths {
				p := paths[(i+j)%len(paths)]
				for _, op := range []core.OpCode{core.OpSetData, core.OpSetData, core.OpDelete, core.OpCreate} {
					subs = append(subs, sub{op, p, k.Now(), c.submitWrite(op, p, []byte(id), -1, 0)})
				}
			}
			for _, s := range subs {
				resp, err := c.await(s.fut)
				fmt.Fprintf(&buf, "%d %s %s %s v=%d mzxid=%d txid=%d err=%v\n",
					k.Now(), id, s.op, s.path, resp.Stat.Version, resp.Stat.Mzxid, resp.Txid, err)
				write(s.op, s.path, s.start, resp, err)
			}
			for _, p := range paths {
				start := k.Now()
				data, st, err := c.GetData(p)
				fmt.Fprintf(&buf, "%d %s get %s:%s v=%d mzxid=%d err=%v\n", k.Now(), id, p, data, st.Version, st.Mzxid, err)
				e := histcheck.Event{Session: id, Kind: histcheck.KindRead, Op: "get", Path: p, Value: string(data),
					Mzxid: st.Mzxid, Start: start, End: k.Now(), Definite: err != nil}
				if err != nil {
					e.Err = err.Error()
				}
				h.Add(e)
			}
			err = c.Close()
			fmt.Fprintf(&buf, "%d %s close err=%v\n", k.Now(), id, err)
		})
	}
	k.Run()
	k.Shutdown()
	return buf.Bytes(), h
}

// concurrentTraceSHA256 pins concurrentTraceWorkload on the default
// configuration: multi-message invocations and same-path chains are where
// a reordered pop, watch claim or prefetched commit would show first.
//
// Re-pinned once (from 6ca0acd6…f8caad, which had held since before PR 18)
// when the leader became a two-lane software pipeline (distributor.go):
// under a flush in flight it now retires the previous message's pop and
// commits the next message, so a backed-up leader answers sooner — the
// trace ends at 2 297 810 275 ns, was 2 577 915 797. The workload is racy
// by construction (three sessions create and delete the same two paths),
// so sooner answers let followers win and lose different races: from line
// 6 on the lines differ in content, not only in timestamp (c1's second set
// of /s2 now beats c0's re-create of /s1 to the leader queue, two sets lose
// to a delete that used to come later). What must not depend on who wins is
// checked by the trace's history check on every run, so the pin is not the
// only thing standing behind this trace.
//
// Re-pinned a second time (from 95d15d01…ec8073) for the leader's opening
// read (see singleShardTraceSHA256): every invocation reaches its first flush
// one system-store read sooner, which again moves who wins the races — the
// first 11 of the 41 lines keep their content, from line 12 on (c0's
// re-create of /s1 now beats c1's first set of /s2 to the leader queue) they
// differ, and this history happens to end later, at 2 421 420 899 ns: still
// 8 writes lose a race, but other ones. The history check passes on it.
//
// Re-pinned a third time (from b54ef3dd…fd32) for the carried pop (see
// singleShardTraceSHA256): an invocation's last pop now runs under the next
// invocation's first flush, and a write on the path just written commits on
// the opening read's word. The first 12 of the 41 lines keep their content;
// from line 13 on (c1's first set of /s2 now reaches the leader ahead of
// c0's) the races go other ways — 10 lines carry an error where 8 did, c0's
// delete and re-create of /s2 among them — and the history ends at
// 2 116 776 222 ns, was 2 421 420 899. The history check passes on it.
//
// Re-pinned a fourth time (from 91f707d2…8664) for the watch claim on the
// commit check's read (see singleShardTraceSHA256). The first 12 of the lines
// keep their content. Line 13 is c0's GetDataW of /s1: its registration finds
// c1's create committed but not yet readable, so the read waits for the
// registration's frontier and returns the node (mzxid 1) where it answered
// no_node. From there the races go other ways — 14 lines carry an error
// where 10 did — and the history ends at 2 034 072 048 ns, was
// 2 116 776 222. The history check passes on it.
//
// Re-pinned a fifth time (from a5ac0d44…3eca) for the watch claim's one
// parallel round (see singleShardTraceSHA256): the write that fires c0's
// watch on /s1 reaches its flush one system-store write sooner, and the
// latency stream is dealt to the operations after it in a new order. The
// first 15 of the 41 lines keep their content; from line 16 on (c0's set of
// /s2 now commits ahead of c2's set of /s1) the races go other ways — 7
// lines carry an error where 14 did — and the history ends at
// 2 141 009 836 ns, was 2 034 072 048. The history check passes on it.
//
// Re-pinned a sixth time (from c4fae2c4…bbd4) for the one-shard claim
// round run under the flush (see singleShardTraceSHA256): the write that
// fires c0's watch on /s1 reaches its flush without waiting for the round's
// system-store write, and the latency stream is dealt to the operations
// after it in a new order. The first 7 of the 41 lines keep their content;
// from line 8 on (c0's set of /s1, the write that fires the watch, is now
// answered ahead of c2's failed set of /s1) the races go other ways — 8
// lines carry an error where 7 did — and the history ends at
// 1 971 271 333 ns, was 2 141 009 836. The history check passes on it.
//
// Re-pinned a seventh time (from 07211e2c…559a) for the opening read that
// skips the epoch item on the slot's word (see singleShardTraceSHA256): the
// latency stream is dealt to the operations in a new order. The first 8 of
// the 41 lines keep their content; from line 9 on (c2's failed set of /s1
// is now answered ahead of c0's notification) the races go other ways — 10
// lines carry an error where 8 did — and the history ends at
// 1 768 881 233 ns, was 1 971 271 333. The history check passes on it.
//
// Re-pinned an eighth time (from 457f8fbc…6d83) for the leader that no
// longer waits for watch deliveries (see singleShardTraceSHA256): the
// invocation of c0's set of /s1, which fires c0's watch, returns without
// waiting for the delivery, so the writes queued behind it are answered
// sooner. The first 19 of the 41 lines keep their content; from line 20 on
// (c1's set of /s2 is now answered at 740 ms, ahead of c0's notification,
// which the watch function still sends at 916 ms) the races go other ways —
// 7 lines carry an error where 10 did — and the history ends at
// 1 743 345 892 ns, was 1 768 881 233. The history check passes on it.
//
// Re-pinned a ninth time (from 9d025eaa…759d) for the per-txid fire records
// (see singleShardTraceSHA256): the write that fires c0's watch on /s1 makes
// no clear, and the latency stream is dealt to the operations after it in a
// new order. The first 14 of the lines keep their content; from line 15 on
// (c0's set of /s2 now commits at txid 9, ahead of c2's set of /s1) the
// races go other ways — 8 lines carry an error where 7 did — and the history
// ends at 1 752 931 604 ns, was 1 743 345 892. The history check passes on
// it.
const concurrentTraceSHA256 = "666ffc2137fcad1fff9727718c6f732a85697976dff96624eb056a3a2d04e1c7"

// TestConcurrentTraceIdentical: the concurrent default-config trace matches
// its golden hash, with and without an explicit WriteShards: 1, and its
// history is a legal ZooKeeper history whichever way its races went:
// histcheck.Check replays every path's acked writes in txid order and
// judges each session's answers, reads and notification against them.
func TestConcurrentTraceIdentical(t *testing.T) {
	base, h := concurrentTraceWorkload(t, core.Config{})
	one, _ := concurrentTraceWorkload(t, core.Config{WriteShards: 1})
	if !bytes.Equal(base, one) {
		t.Fatalf("WriteShards:1 trace differs from default:\n--- default ---\n%s--- shards=1 ---\n%s", base, one)
	}
	for _, v := range histcheck.Check(h, histcheck.CheckOpts{}) {
		t.Errorf("%s", v)
	}
	if got := fmt.Sprintf("%x", sha256.Sum256(base)); got != concurrentTraceSHA256 {
		t.Fatalf("concurrent trace drifted from the paper-faithful pipeline:\nhash %s (golden %s)\ntrace:\n%s",
			got, concurrentTraceSHA256, base)
	}
}

// TestTraceIndependentOfProcessHistory: billed sizes — and through them
// virtual time — must not depend on what ran earlier in the process.
// encoding/gob assigned type ids from a process-global counter in
// first-use order, so a transaction encode in an earlier simulation
// changed the byte size of later messages (core/gobinit.go existed to pin
// that order). With hand-written codecs it holds by construction; this
// pins it: run a transaction first (every txn wire type, its lock list
// naming an item on the other shard, which its check reads), then require
// the golden hash.
func TestTraceIndependentOfProcessHistory(t *testing.T) {
	cfg := core.Config{WriteShards: 2}
	run(t, 99, cfg, func(k *sim.Kernel, d *core.Deployment) {
		c := mustConnect(t, d, "warm")
		paths := shardedPaths(2, 2)
		for _, p := range paths {
			if _, err := c.Create(p, nil, 0); err != nil {
				t.Fatalf("create %s: %v", p, err)
			}
		}
		if _, err := c.Multi(
			txn.SetData(paths[0], []byte("x"), -1),
			txn.Check(paths[1], -1),
		); err != nil {
			t.Fatalf("multi with a check on the other shard: %v", err)
		}
		c.Close()
	})
	trace := traceWorkload(t, core.Config{})
	if got := fmt.Sprintf("%x", sha256.Sum256(trace)); got != singleShardTraceSHA256 {
		t.Fatalf("trace depends on process history:\nhash %s (golden %s)\ntrace:\n%s",
			got, singleShardTraceSHA256, trace)
	}
}

// TestPerSessionFIFOAcrossShards: a session pipelines writes that
// alternate between shards; responses must still be released in
// submission order at every shard count. Waiting on the LAST future and
// then checking all earlier ones are already done proves FIFO release.
func TestPerSessionFIFOAcrossShards(t *testing.T) {
	for _, shards := range []int{1, 2, 4, 8} {
		shards := shards
		t.Run(fmt.Sprintf("shards%d", shards), func(t *testing.T) {
			run(t, int64(100+shards), core.Config{WriteShards: shards}, func(k *sim.Kernel, d *core.Deployment) {
				setup := mustConnect(t, d, "setup")
				paths := shardedPaths(shards, 2*shards)
				for _, p := range paths {
					if _, err := setup.Create(p, nil, 0); err != nil {
						t.Fatalf("create %s: %v", p, err)
					}
				}
				c := mustConnect(t, d, "writer")
				const rounds = 3
				var futs []*sim.Future[core.Response]
				for r := 0; r < rounds; r++ {
					for _, p := range paths {
						futs = append(futs, c.submitWrite(core.OpSetData, p, []byte{byte(r)}, -1, 0))
					}
				}
				last, ok := futs[len(futs)-1].WaitTimeout(DefaultRequestTimeout)
				if !ok {
					t.Fatal("last write timed out")
				}
				if last.Code != core.CodeOK {
					t.Fatalf("last write failed: %s", last.Code)
				}
				for i, f := range futs[:len(futs)-1] {
					if !f.Done() {
						t.Fatalf("write %d released after a later write (FIFO broken at %d shards)", i, shards)
					}
					resp, _ := f.WaitTimeout(0)
					if resp.Code != core.CodeOK {
						t.Errorf("write %d: %s", i, resp.Code)
					}
				}
				// Per-node mzxid monotonicity across the pipelined rounds.
				for _, p := range paths {
					_, st, err := c.GetData(p)
					if err != nil {
						t.Errorf("read %s: %v", p, err)
						continue
					}
					if st.Version != rounds {
						t.Errorf("%s version = %d, want %d", p, st.Version, rounds)
					}
				}
				c.Close()
				setup.Close()
			})
		})
	}
}

// TestWatchesAcrossShards: watches registered on nodes owned by different
// shards all fire, and a read after the notification observes the new
// data (the per-shard MRD gate).
func TestWatchesAcrossShards(t *testing.T) {
	run(t, 55, core.Config{WriteShards: 4}, func(k *sim.Kernel, d *core.Deployment) {
		writer := mustConnect(t, d, "writer")
		watcher := mustConnect(t, d, "watcher")
		paths := shardedPaths(4, 4)
		for _, p := range paths {
			if _, err := writer.Create(p, []byte("v0"), 0); err != nil {
				t.Fatalf("create %s: %v", p, err)
			}
		}
		fired := map[string]int{}
		for _, p := range paths {
			p := p
			if _, _, err := watcher.GetDataW(p, func(n core.Notification) {
				fired[p]++
				data, _, err := watcher.GetData(p)
				if err != nil || string(data) != "v1" {
					t.Errorf("read after notify on %s: %q %v", p, data, err)
				}
			}); err != nil {
				t.Fatalf("watch %s: %v", p, err)
			}
		}
		for _, p := range paths {
			if _, err := writer.SetData(p, []byte("v1"), -1); err != nil {
				t.Fatalf("set %s: %v", p, err)
			}
		}
		k.Sleep(5 * sim.Ms(1000))
		for _, p := range paths {
			if fired[p] != 1 {
				t.Errorf("watch on %s fired %d times, want 1", p, fired[p])
			}
		}
		if watcher.MRD() == 0 {
			t.Error("MRD not advanced by notifications")
		}
		watcher.Close()
		writer.Close()
	})
}

// TestShardedSessionCloseDeletesEphemerals: Close() must ack only after
// ephemeral nodes scattered over several shards are all removed from the
// user store (the deregistration-ack fanout barrier).
func TestShardedSessionCloseDeletesEphemerals(t *testing.T) {
	run(t, 66, core.Config{WriteShards: 4}, func(k *sim.Kernel, d *core.Deployment) {
		owner := mustConnect(t, d, "owner")
		paths := shardedPaths(4, 4)
		var eph []string
		for _, p := range paths {
			if _, err := owner.Create(p, nil, 0); err != nil {
				t.Fatalf("create %s: %v", p, err)
			}
			e := p + "/eph"
			if _, err := owner.Create(e, nil, znode.FlagEphemeral); err != nil {
				t.Fatalf("create %s: %v", e, err)
			}
			eph = append(eph, e)
		}
		if err := owner.Close(); err != nil {
			t.Fatalf("close: %v", err)
		}
		reader := mustConnect(t, d, "reader")
		defer reader.Close()
		for _, e := range eph {
			if st, err := reader.Exists(e); err != nil || st != nil {
				t.Errorf("ephemeral %s still visible after close (st=%v err=%v)", e, st, err)
			}
		}
	})
}

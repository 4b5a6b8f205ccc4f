package fkclient

// Tests of the sharded write path from the client's perspective: the
// determinism guard (WriteShards: 1 is byte-identical to the default
// pipeline), per-session FIFO delivery at every shard count, watch
// delivery across shards, and the randomized consistency suite on a
// multi-shard deployment.

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"

	"faaskeeper/internal/core"
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
const singleShardTraceSHA256 = "268bac67ea25c968555d0e41a316cffa77cd648ee2571c416a5ad5900ff97fa2"

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
// virtual timestamp.
func concurrentTraceWorkload(t *testing.T, cfg core.Config) []byte {
	t.Helper()
	var buf bytes.Buffer
	k := sim.NewKernel(4321)
	d := core.NewDeployment(k, cfg)
	paths := []string{"/s1", "/s2"}
	for i := 0; i < 3; i++ {
		i := i
		id := fmt.Sprintf("c%d", i)
		k.Go("trace-"+id, func() {
			c, err := Connect(d, id, d.Cfg.Profile.Home)
			if err != nil {
				t.Errorf("connect %s: %v", id, err)
				return
			}
			// The first create of each path is synchronous so the watch
			// below has a node to attach to; everything after is pipelined.
			for _, p := range paths {
				_, err := c.Create(p, []byte(id), 0)
				fmt.Fprintf(&buf, "%d %s create %s err=%v\n", k.Now(), id, p, err)
			}
			if i == 0 {
				_, st, err := c.GetDataW(paths[0], func(n core.Notification) {
					fmt.Fprintf(&buf, "%d %s notify %s ev=%v txid=%d\n", k.Now(), id, n.Path, n.Event, n.Txid)
				})
				fmt.Fprintf(&buf, "%d %s watch %s v=%d mzxid=%d err=%v\n", k.Now(), id, paths[0], st.Version, st.Mzxid, err)
			}
			type sub struct {
				op   core.OpCode
				path string
				fut  *sim.Future[core.Response]
			}
			var subs []sub
			for j := range paths {
				p := paths[(i+j)%len(paths)]
				for _, op := range []core.OpCode{core.OpSetData, core.OpSetData, core.OpDelete, core.OpCreate} {
					subs = append(subs, sub{op, p, c.submitWrite(op, p, []byte(id), -1, 0)})
				}
			}
			for _, s := range subs {
				resp, err := c.await(s.fut)
				fmt.Fprintf(&buf, "%d %s %s %s v=%d mzxid=%d txid=%d err=%v\n",
					k.Now(), id, s.op, s.path, resp.Stat.Version, resp.Stat.Mzxid, resp.Txid, err)
			}
			for _, p := range paths {
				data, st, err := c.GetData(p)
				fmt.Fprintf(&buf, "%d %s get %s:%s v=%d mzxid=%d err=%v\n", k.Now(), id, p, data, st.Version, st.Mzxid, err)
			}
			err = c.Close()
			fmt.Fprintf(&buf, "%d %s close err=%v\n", k.Now(), id, err)
		})
	}
	k.Run()
	k.Shutdown()
	return buf.Bytes()
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
// checked by checkConcurrentTrace on every run, so the pin is not the only
// thing standing behind this trace.
//
// Re-pinned a second time (from 95d15d01…ec8073) for the leader's opening
// read (see singleShardTraceSHA256): every invocation reaches its first flush
// one system-store read sooner, which again moves who wins the races — the
// first 11 of the 41 lines keep their content, from line 12 on (c0's
// re-create of /s1 now beats c1's first set of /s2 to the leader queue) they
// differ, and this history happens to end later, at 2 421 420 899 ns: still
// 8 writes lose a race, but other ones. checkConcurrentTrace passes on it.
const concurrentTraceSHA256 = "b54ef3dd8ddf6615acd3b5498249d898dfc319276b980a57d92dfb87de86fd32"

// TestConcurrentTraceIdentical: the concurrent default-config trace matches
// its golden hash, with and without an explicit WriteShards: 1, and is a
// legal ZooKeeper history whichever way its races went.
func TestConcurrentTraceIdentical(t *testing.T) {
	base := concurrentTraceWorkload(t, core.Config{})
	one := concurrentTraceWorkload(t, core.Config{WriteShards: 1})
	if !bytes.Equal(base, one) {
		t.Fatalf("WriteShards:1 trace differs from default:\n--- default ---\n%s--- shards=1 ---\n%s", base, one)
	}
	checkConcurrentTrace(t, base)
	if got := fmt.Sprintf("%x", sha256.Sum256(base)); got != concurrentTraceSHA256 {
		t.Fatalf("concurrent trace drifted from the paper-faithful pipeline:\nhash %s (golden %s)\ntrace:\n%s",
			got, concurrentTraceSHA256, base)
	}
}

var (
	traceWriteLine  = regexp.MustCompile(`^\d+ (\w+) (set_data|delete|create) (\S+) v=(\d+) mzxid=(\d+) txid=(\d+) err=(.*)$`)
	traceNotifyLine = regexp.MustCompile(`^\d+ (\w+) notify (\S+) ev=(\w+) txid=(\d+)$`)
	traceGetLine    = regexp.MustCompile(`^\d+ (\w+) get (\S+):(\w*) v=(\d+) mzxid=(\d+) err=(.*)$`)
)

// checkConcurrentTrace asserts on a rendered concurrentTraceWorkload trace
// what holds however its create/delete races resolve: the leader answers
// each session in submission order; replayed in txid order, every path's
// acknowledged writes form a legal history with strictly increasing mzxid;
// the one armed watch fires at most once, for a write that happened; and
// every final read returns a state some acknowledged write produced, no
// older than the reader's own last write.
func checkConcurrentTrace(t *testing.T, trace []byte) {
	t.Helper()
	type write struct {
		session, op, path string
		v, mzxid, txid    int64
	}
	num := func(s string) int64 { n, _ := strconv.ParseInt(s, 10, 64); return n }
	var writes []write
	lastTxid := map[string]int64{}            // session -> newest txid answered
	ownMzxid := map[[2]string]int64{}         // (session, path) -> newest own mzxid
	produced := map[string]map[int64]string{} // path -> mzxid -> data written
	deleted := map[string]bool{}              // path -> some delete was acknowledged
	var notified []write
	for _, line := range strings.Split(strings.TrimSpace(string(trace)), "\n") {
		if m := traceWriteLine.FindStringSubmatch(line); m != nil && m[7] == "<nil>" {
			w := write{m[1], m[2], m[3], num(m[4]), num(m[5]), num(m[6])}
			if w.txid <= lastTxid[w.session] {
				t.Errorf("%s answered txid %d after txid %d: not in submission order\n%s", w.session, w.txid, lastTxid[w.session], line)
			}
			lastTxid[w.session] = w.txid
			writes = append(writes, w)
		} else if m := traceNotifyLine.FindStringSubmatch(line); m != nil {
			notified = append(notified, write{session: m[1], path: m[2], op: m[3], txid: num(m[4])})
		}
	}
	sort.Slice(writes, func(i, j int) bool { return writes[i].txid < writes[j].txid })
	// Both paths exist at version 0 once the synchronous creates are through.
	type state struct {
		exists         bool
		version, mzxid int64
	}
	nodes := map[string]*state{}
	for i, w := range writes {
		if i > 0 && w.txid == writes[i-1].txid {
			t.Errorf("txid %d acknowledged twice", w.txid)
		}
		n := nodes[w.path]
		if n == nil {
			n = &state{exists: true}
			nodes[w.path] = n
			produced[w.path] = map[int64]string{}
		}
		switch w.op {
		case "set_data":
			n.version++
			if !n.exists || w.v != n.version || w.mzxid != w.txid {
				t.Errorf("illegal at txid %d: %+v on %+v", w.txid, w, *n)
			}
		case "create":
			if n.exists || w.v != 0 || w.mzxid != w.txid {
				t.Errorf("illegal at txid %d: %+v on %+v", w.txid, w, *n)
			}
			n.exists, n.version = true, 0
		case "delete":
			if !n.exists {
				t.Errorf("illegal at txid %d: delete of a deleted node", w.txid)
			}
			n.exists, deleted[w.path] = false, true
		}
		if w.op != "delete" {
			if w.mzxid <= n.mzxid {
				t.Errorf("%s: mzxid %d after %d", w.path, w.mzxid, n.mzxid)
			}
			n.mzxid = w.mzxid
			produced[w.path][w.mzxid] = w.session // every write's data is its session id
			ownMzxid[[2]string{w.session, w.path}] = w.mzxid
		}
	}
	if len(notified) > 1 {
		t.Errorf("the one-shot watch fired %d times", len(notified))
	}
	for _, n := range notified {
		ok := false
		for _, w := range writes {
			ok = ok || (w.txid == n.txid && w.path == n.path &&
				(w.op == "set_data" && n.op == "data_changed" || w.op == "delete" && n.op == "deleted"))
		}
		if !ok {
			t.Errorf("notification %+v matches no acknowledged write", n)
		}
	}
	for _, line := range strings.Split(string(trace), "\n") {
		m := traceGetLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		session, path, data, mzxid := m[1], m[2], m[3], num(m[5])
		if m[6] != "<nil>" {
			if !deleted[path] {
				t.Errorf("%s: %s reads as missing, but no delete was acknowledged", session, path)
			}
			continue
		}
		if by, ok := produced[path][mzxid]; !ok || by != data {
			t.Errorf("%s read %s = %q at mzxid %d, which no acknowledged write produced", session, path, data, mzxid)
		}
		if own := ownMzxid[[2]string{session, path}]; mzxid < own {
			t.Errorf("%s read %s at mzxid %d, older than its own write at %d", session, path, mzxid, own)
		}
	}
}

// TestTraceIndependentOfProcessHistory: billed sizes — and through them
// virtual time — must not depend on what ran earlier in the process.
// encoding/gob assigned type ids from a process-global counter in
// first-use order, so a transaction or shard-map encode in an earlier
// simulation changed the byte size of later messages (core/gobinit.go
// existed to pin that order). With hand-written codecs it holds by
// construction; this pins it: run a cross-shard transaction and a live
// split first (every txn, fence and shard-map wire type), then require the
// golden hash.
func TestTraceIndependentOfProcessHistory(t *testing.T) {
	cfg := core.Config{WriteShards: 2, DynamicShards: true}
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
			txn.SetData(paths[1], []byte("y"), -1),
		); err != nil {
			t.Fatalf("cross-shard multi: %v", err)
		}
		if err := d.SplitSubtree(paths[0], 2); err != nil {
			t.Fatalf("split: %v", err)
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

// TestShardedRandomizedHistories runs the randomized consistency workload
// on a 4-shard deployment. Z2's global txid check does not apply across
// shards, but per-node ordering (Z3), tree integrity (Z1), and ephemeral
// cleanup must hold at any shard count — including concurrent top-level
// creates/deletes that exercise the shared-root update gate.
func TestShardedRandomizedHistories(t *testing.T) {
	for _, seed := range []int64{404, 505} {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			_, d := randomHistory(t, seed, core.Config{WriteShards: 4}, 4, 12)
			verifyTreeIntegrity(t, d)
		})
	}
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

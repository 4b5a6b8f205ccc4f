package core

// Tests of the leader's software pipeline (distributor.go): what may run
// under a flush in flight and what may not. That nothing a client or a
// store can observe tells the pipelined order apart from Algorithm 2's is
// the chaos matrix's to check (internal/chaos). They drive the deployment
// through a minimal in-package session (package fkclient imports this one)
// and watch it from three sides: the telemetry spans (when each stage and
// store leg ran), the system store's change feed (when each pending entry
// left its list's head), and a recording wrapper around the user store
// (every write and delete, in order).

import (
	"fmt"
	"strings"
	"testing"

	"faaskeeper/internal/cloud"
	"faaskeeper/internal/obs"
	"faaskeeper/internal/sim"
	"faaskeeper/internal/txn"
	"faaskeeper/internal/wire"
)

// pipeFaults is these tests' sim.FaultHook: a targeted crash predicate and
// a log of when the leader's handler process began each invocation (its
// crash point is the first thing it reaches) and started each storage
// operation.
type pipeFaults struct {
	crash func(stage, session string, seq int64) bool

	k           *sim.Kernel
	leaderHeads []sim.Time
	leaderOps   []sim.Time
	// hold, when set, is the extra latency of each storage operation, by the
	// name of the process that starts it.
	hold func(proc string) sim.Time
}

func (h *pipeFaults) Crash(stage, session string, seq int64) bool {
	if stage == obs.StageCommit {
		h.leaderHeads = append(h.leaderHeads, h.k.Now())
	}
	return h.crash != nil && h.crash(stage, session, seq)
}
func (*pipeFaults) Redeliver(string) bool         { return false }
func (*pipeFaults) DeliveryDelay(string) sim.Time { return 0 }
func (h *pipeFaults) OpDelay() sim.Time {
	proc := h.k.Current().Name()
	if proc == "trigger:"+FnLeader+":0" {
		h.leaderOps = append(h.leaderOps, h.k.Now())
	}
	if h.hold != nil {
		return h.hold(proc)
	}
	return 0
}

// storeCall is one Write or Delete the primary user store served.
type storeCall struct {
	path  string
	mzxid int64 // 0 for a delete
}

type pipeRig struct {
	t     *testing.T
	k     *sim.Kernel
	d     *Deployment
	calls []storeCall        // in the order they started
	pops  map[int64]sim.Time // txid -> first instant it left the head of a pending list
}

// recStore records every mutation of the store it wraps.
type recStore struct {
	UserStore
	rig *pipeRig
}

func (s *recStore) Write(ctx cloud.Ctx, o Object) error {
	s.rig.calls = append(s.rig.calls, storeCall{o.Path, o.Node.Stat.Mzxid})
	return s.UserStore.Write(ctx, o)
}

func (s *recStore) Delete(ctx cloud.Ctx, path string) error {
	s.rig.calls = append(s.rig.calls, storeCall{path, 0})
	return s.UserStore.Delete(ctx, path)
}

func newPipeRig(t *testing.T, seed int64, cfg Config, hook *pipeFaults) *pipeRig {
	t.Helper()
	cfg.Telemetry = true
	k, d := newTestDeployment(seed, cfg)
	if hook != nil {
		hook.k = k
		k.SetFaultHook(hook)
	}
	r := &pipeRig{t: t, k: k, d: d, pops: map[int64]sim.Time{}}
	r.d.Stores[0] = &recStore{UserStore: r.d.Stores[0], rig: r}
	for _, ls := range r.d.leaders {
		ls.legs[0].store = r.d.Stores[0] // each shard's home leg writes through it too
	}
	// A pending list only ever loses its head, so a changed head is a pop —
	// by popPending or by awaitCommit's orphan branch, the feed cannot tell.
	feed := r.d.System.EnableStream().Records
	k.Go("pending-feed", func() {
		heads := map[string]int64{}
		for {
			rec, ok := feed.Pop()
			if !ok {
				return
			}
			if !strings.HasPrefix(rec.Key, "/") {
				continue
			}
			var head int64
			if p := decodeSysNode(rec.Item, 0).Pending; len(p) > 0 {
				head = p[0]
			}
			if old := heads[rec.Key]; old != 0 && old != head {
				if _, seen := r.pops[old]; !seen {
					r.pops[old] = k.Now() // a multi() pops one entry per target
				}
			}
			heads[rec.Key] = head
		}
	})
	return r
}

// run executes the rig's processes to quiescence.
func (r *pipeRig) run() {
	r.k.Run()
	r.k.Shutdown()
	if errs := r.d.Obs.Tracer.Errors(); len(errs) > 0 {
		r.t.Errorf("tracer invariant violations: %v", errs)
	}
}

// settle runs the pending pops every shard's last leader invocation carried,
// as the shard's next invocation would, so the system store reads as
// Algorithm 2 leaves it after a write's last step. It must run inside a sim
// process.
func (r *pipeRig) settle() {
	for shard, ls := range r.d.leaders {
		p := leaderRun{leaderShard: ls, d: r.d, ctx: r.d.BillSystemCtx(cloud.ClientCtx(r.d.Cfg.Profile.Home)), shard: shard}
		p.retire()
		p.carry()
	}
}

// carried reports whether txid's pop is still carried: its invocation was
// its shard's last.
func (r *pipeRig) carried(txid int64) bool {
	for _, ls := range r.d.leaders {
		for _, c := range ls.pops {
			if c.txid == txid {
				return true
			}
		}
	}
	return false
}

// span returns the first closed span of the trace with the given name.
func (r *pipeRig) span(trace int64, name string) obs.Span {
	r.t.Helper()
	for _, sp := range r.d.Obs.Tracer.TraceSpans(trace) {
		if sp.Name == name {
			return sp
		}
	}
	r.t.Fatalf("trace %d has no %s span", trace, name)
	return obs.Span{}
}

func (r *pipeRig) counter(name string) int64 {
	return r.d.Obs.Metrics.Counter(obs.Key{Component: "leader", Name: name})
}

// pipeSession is the smallest client the pipeline can be driven with:
// requests go straight into the session queue, responses and notifications
// are logged in arrival order (a duplicate response — a redelivered batch
// re-answering — loses to the first, as in fkclient).
type pipeSession struct {
	rig   *pipeRig
	id    string
	st    *SessionTransport
	ctx   cloud.Ctx
	seq   int64
	futs  map[int64]*sim.Future[Response]
	resps int // responses received, duplicates included
	notes []Notification
}

// open must run inside a sim process.
func (r *pipeRig) open(id string) *pipeSession {
	d := r.d
	s := &pipeSession{
		rig: r, id: id, st: d.Connect(id, d.Cfg.Profile.Home),
		ctx:  d.BillSystemCtx(cloud.ClientCtx(d.Cfg.Profile.Home)),
		futs: map[int64]*sim.Future[Response]{},
	}
	if err := d.RegisterSession(s.ctx, id); err != nil {
		r.t.Errorf("register %s: %v", id, err)
	}
	r.k.Go("recv-"+id, func() {
		for {
			pkt, ok := s.st.ClientEnd.Recv()
			if !ok {
				return
			}
			switch pkt.Payload.Kind {
			case MsgResponse:
				v := pkt.Payload.Response
				s.resps++
				if s.futs[v.Seq].TryComplete(v) {
					d.Obs.Tracer.Finish(obs.TraceOf(id, v.Seq))
				}
			case MsgNotification:
				v := pkt.Payload.Notification
				s.notes = append(s.notes, v)
				s.arm(v.Path)
			}
		}
	})
	return s
}

func (s *pipeSession) arm(path string) {
	if _, _, err := s.rig.d.RegisterWatch(s.ctx, path, WatchData, s.id); err != nil {
		s.rig.t.Errorf("%s: arm %s: %v", s.id, path, err)
	}
}

func (s *pipeSession) submit(op OpCode, path, data string) *sim.Future[Response] {
	return s.send(Request{Op: op, Path: path, Data: []byte(data), Version: -1})
}

// send stamps the request with the session's identity and next sequence
// number and puts it on the session queue.
func (s *pipeSession) send(req Request) *sim.Future[Response] {
	s.seq++
	req.Session, req.Seq = s.id, s.seq
	fut := sim.NewFuture[Response](s.rig.k)
	s.futs[req.Seq] = fut
	tr := s.rig.d.Obs.Tracer
	tr.StartRequest(req.trace(), string(req.Op), req.Path)
	e := wire.NewEncoder()
	_, err := s.st.Queue.Send(s.ctx, s.id, req.Encode(e))
	e.Release()
	if err != nil {
		s.rig.t.Errorf("%s: send: %v", s.id, err)
	}
	tr.Stage(req.trace(), obs.StageQueue)
	return fut
}

func (s *pipeSession) do(op OpCode, path, data string) Response {
	return s.submit(op, path, data).Wait()
}

// backlog opens n sessions that each pipeline sets sets, cycling through
// pathsOf(i): one session alone never out-runs its follower, several keep
// the leader's queue a few messages deep, so its invocations carry runs. A
// path is created by the first session that names it.
func (r *pipeRig) backlog(n, sets int, pathsOf func(i int) []string) []*pipeSession {
	loaders := make([]*pipeSession, n)
	owner := map[string]int{}
	for i := n - 1; i >= 0; i-- {
		for _, p := range pathsOf(i) {
			owner[p] = i
		}
	}
	for i := range loaders {
		i := i
		r.k.Go(fmt.Sprintf("loader-%d", i), func() {
			s := r.open(fmt.Sprintf("L%d", i))
			loaders[i] = s
			paths := pathsOf(i)
			for _, p := range paths {
				if owner[p] == i {
					s.do(OpCreate, p, "0")
				} else {
					r.k.Sleep(sim.Ms(900)) // its owner has created it by then
				}
			}
			var futs []*sim.Future[Response]
			for j := 0; j < sets; j++ {
				futs = append(futs, s.submit(OpSetData, paths[j%len(paths)], fmt.Sprintf("%s.%d", s.id, j)))
			}
			for _, f := range futs {
				f.Wait()
			}
		})
	}
	return loaders
}

// TestLeaderTotalContainsPop: a lone message's leader.total closes in the
// invocation that completed it. It holds every phase that ran there and
// never the idle time before the next invocation, to which the message's pop
// is carried: the pop is recorded when it runs, under that invocation's
// flush, inside that invocation's leader.total. (When the pop trailed each
// response, serially, Table 3's leader.total held it on top.)
func TestLeaderTotalContainsPop(t *testing.T) {
	r := newPipeRig(t, 11, Config{}, nil) // the rig turns Telemetry on: phases are recorded
	const writes = 20
	r.k.Go("writer", func() {
		s := r.open("w")
		s.do(OpCreate, "/n", "0")
		for i := 0; i < writes; i++ {
			s.do(OpSetData, "/n", "x")
			r.k.Sleep(sim.Ms(200)) // the leader idles: every message rides alone
		}
	})
	r.run()

	sum := func(name string, n int) float64 {
		s := r.d.Phase(name)
		if s == nil || s.N() != n {
			t.Fatalf("%s: %v samples, want %d", name, s, n)
		}
		return s.Mean() * float64(s.N())
	}
	serial := sum("leader.get", writes+1) + sum("leader.update", writes+1) + sum("leader.watchquery", writes+1) + sum("leader.notify", writes+1)
	total := sum("leader.total", writes+1)
	if total < serial-1e-6 {
		t.Errorf("leader.total sums to %.3f ms, its serial phases to %.3f ms: a phase fell out of the total", total, serial)
	}
	// The handler's time bounds every total it closed: none spans idle time.
	if busy := r.d.Platform.Function(FnLeader).BilledSeconds() * 1000; total > busy {
		t.Errorf("leader.total sums to %.3f ms, the leader's invocations to %.3f ms: a total spans idle time", total, busy)
	}
	// Every message's pop but the last one's ran, each under the flush of the
	// next invocation.
	sum("leader.pop", writes)
	if n := r.counter("pop_overlapped"); n != writes {
		t.Errorf("%d pops ran under a flush, want %d", n, writes)
	}
	if pop := r.d.Phase("leader.pop").Mean(); pop < 3 {
		t.Fatalf("leader.pop mean %.3f ms: the test no longer measures a real pop", pop)
	}
}

// TestChunkNotifiesBeforeItPops: in a multi-message chunk every response
// leaves before the first of the chunk's deferred pops runs — no client
// waits behind a pop that is off every client's critical path by design.
func TestChunkNotifiesBeforeItPops(t *testing.T) {
	r := newPipeRig(t, 5, Config{BatchWrites: true}, nil)
	loaders := r.backlog(3, 6, func(i int) []string { return []string{fmt.Sprintf("/a%d", i)} })
	r.run()

	// Chunk-mates enter the flush stage at the same instant.
	type chunk struct {
		lastNotify sim.Time
		txids      []int64
	}
	chunks := map[sim.Time]*chunk{}
	for _, s := range loaders {
		for seq, f := range s.futs {
			if f.Value().Code != CodeOK {
				t.Fatalf("%s seq %d: %s", s.id, seq, f.Value().Code)
			}
			trace := obs.TraceOf(s.id, seq)
			flush := r.span(trace, obs.StageFlush).Start
			c := chunks[flush]
			if c == nil {
				c = &chunk{}
				chunks[flush] = c
			}
			c.lastNotify = max(c.lastNotify, r.span(trace, obs.StageRespond).Start)
			c.txids = append(c.txids, f.Value().Txid)
		}
	}
	shared := 0
	for flush, c := range chunks {
		if len(c.txids) > 1 {
			shared++
		}
		for _, txid := range c.txids {
			// A pop before the flush is the pop rule's, in the commit phase.
			// One that lands the instant a notify starts was run ahead of it.
			if pop := r.pops[txid]; pop >= flush && pop <= c.lastNotify {
				t.Errorf("txid %d popped at %d, not after its chunk's last notify at %d", txid, pop, c.lastNotify)
			}
		}
	}
	if shared == 0 {
		t.Fatal("no chunk carried two messages: the order is not exercised")
	}
}

// traced opens the request span trees of hand-built messages, as the
// session opens those of the requests it sends, so their leader-side spans
// can be read back.
func (r *pipeRig) traced(msgs ...leaderMsg) []leaderMsg {
	for _, m := range msgs {
		r.d.Obs.Tracer.StartRequest(m.trace(), string(m.Op), m.Path)
	}
	return msgs
}

// TestMultiNotifiesBeforeItPops: a multi() is a chunk like any other, so it
// answers before its pops, one per target, join the deferred list; they run
// under the flush of the message behind it in the invocation.
func TestMultiNotifiesBeforeItPops(t *testing.T) {
	r := newPipeRig(t, 21, Config{}, &pipeFaults{})
	var msgs []leaderMsg
	r.k.Go(leaderProc, func() {
		s := r.open("w")
		for _, p := range []string{"/a", "/b", "/c"} {
			s.do(OpCreate, p, "0")
		}
		r.k.Sleep(sim.Ms(200))
		r.settle()
		msgs = r.traced(r.pushMulti(s, 9, "1", "/a", "/b"), r.pushSet(s, "/c", "1", 10))
		r.deliver(s.ctx, 9, msgs...)
		for _, m := range msgs {
			if resp := s.futs[m.Seq].Wait(); resp.Code != CodeOK {
				t.Errorf("seq %d: %s", m.Seq, resp.Code)
			}
		}
	})
	r.run()
	respond := r.span(msgs[0].trace(), obs.StageRespond).Start
	flush := r.span(msgs[1].trace(), obs.SpanStoreWrite)
	if pop, ok := r.pops[9]; !ok || pop < respond || pop < flush.Start || pop > flush.End {
		t.Errorf("the multi's first pop landed at %v (ok %v), its answer at %d: want it after the answer, under the next flush [%d, %d]",
			pop, ok, respond, flush.Start, flush.End)
	}
	for _, p := range []string{"/a", "/b"} {
		if got := r.pending(p); len(got) != 0 {
			t.Errorf("%s pending %v after the invocation, want its pop run", p, got)
		}
	}
}

// TestPaperWriteAllocations pins the host cost of one write on the paper
// preset, driven through the rig's minimal session without telemetry: the
// request, the follower's lock, validation, push and commit, the leader's
// opening read, commit check, flush, notify and pop, and the response.
// bench's paper_write workload adds only its own per-write payload and
// bookkeeping to this count (README, "Wire codec & allocation model").
func TestPaperWriteAllocations(t *testing.T) {
	if sim.PoolDropsPuts() {
		t.Skip("sync.Pool drops what it is handed (the race detector does this to a quarter of all puts): the write path's pooled scratch reallocates at random and no count is exact")
	}
	k, write := paperWriter(t)
	got := sim.AllocsPerRun(k, 500, write)
	k.Shutdown()
	if got != paperWriteAllocs {
		t.Fatalf("one paper-preset write: %v allocations, want %d", got, paperWriteAllocs)
	}
}

// paperWriter is the rig of the paper-write pins: a deployment whose
// session has written enough that the sandboxes are warm and the buffers
// grown, and the write to price.
func paperWriter(t *testing.T) (*sim.Kernel, func()) {
	k, d := newTestDeployment(1, Config{})
	r := &pipeRig{t: t, k: k, d: d}
	var s *pipeSession
	k.Go("setup", func() {
		s = r.open("w")
		s.do(OpCreate, "/n", "0")
		for i := 0; i < 20; i++ {
			s.do(OpSetData, "/n", "x")
		}
	})
	k.Run()
	return k, func() {
		if resp := s.do(OpSetData, "/n", "x"); resp.Code != CodeOK {
			t.Fatalf("set_data: %s", resp.Code)
		}
	}
}

// TestPaperWriteKernelWork pins the kernel's work for the write
// TestPaperWriteAllocations prices, over paperWriteRuns writes: exact for
// the seed, under the race detector too.
func TestPaperWriteKernelWork(t *testing.T) {
	k, write := paperWriter(t)
	got := sim.WorkPerRun(k, paperWriteRuns, write)
	k.Shutdown()
	if got != paperWriteWork {
		t.Fatalf("%d paper-preset writes: kernel work %+v, want %+v", paperWriteRuns, got, paperWriteWork)
	}
}

// paperWriteAllocs is TestPaperWriteAllocations' pinned count. Re-pin it
// only with a reason: it moves one for one with bench's paper_write
// allocs_per_op. It was 35 until the queue pollers kept their batch buffer
// and Invocation (4 fewer), op codes decoded to their constants (2), the
// leader built a committed node with its data a view into the message and
// decoded its path with one copy, not two (2), and the shard's slot took
// the decoded batch and the pop's condition (2); it was 25 until the wire
// and znode decoders returned strings that view their input instead of
// copies (3); it was 22 until node records were keyed by their paths, so
// the follower's lock and the leader's commit check build no key (2), the
// follower marshaled the node image straight into its message (1), the
// leader decoded it into the fold's reused entry (1), and the object store
// kept the blob it was handed instead of a copy (1). The client's future
// moved into its pending op too, which this rig's session never had. It was
// 17 until kv dispatched its update actions and conditions by switch, so
// the lock's Set action (1) and both lock conditions (2), built at the
// call, stay on the stack, and the commit kept its two Sets (2) and its
// pending append with its value (2) in a pooled scratch. It was 10 until
// the session connection carried a tagged value by value (SessionMsg), so
// the answer's Response is no longer boxed into an interface (1). It was 9
// until the system store built each commit into the attribute array of the
// version the commit before retired (kv.Table.build), so the follower's
// lock, its commit and the leader's pop copy no item (3).
const paperWriteAllocs = 6

// paperWriteWork is TestPaperWriteKernelWork's pinned count over
// paperWriteRuns writes: a write is 18 dispatches — 10 hand-offs and 8
// self-continues — and the one spawn of the flush's leg. Re-pin it only
// with a reason. It was 1 799 dispatches and 801 self-continues until a
// warm one-shard leader skipped the epoch item in its opening read: the
// read is still one GetViews, so a write's steady count is unchanged, but
// the shorter read lands earlier and the draws after it shift, and the
// first poll of 2 writes in 100 now precedes the follower's commit — one
// polls again (2 more self-continues), one polls three more times and
// replays the commit (6 more).
const paperWriteRuns = 100

var paperWriteWork = sim.Work{Dispatches: 1807, HandOffs: 998, SelfContinues: 809, Spawns: 100}

// The follower's half of a write by s, by hand: lockSet and lockMulti lock
// and validate a set_data of path, or of every one of paths in one
// multi(), and return the message the follower would push, uncommitted
// (lockOps); the push* helpers go on through the follower's commit under
// txid. s waits for the answer. They must run inside a sim process.
func (r *pipeRig) lockSet(s *pipeSession, path, data string) leaderMsg {
	return r.lockOps(s, false, txn.SetData(path, []byte(data), -1))
}

func (r *pipeRig) lockMulti(s *pipeSession, data string, paths ...string) leaderMsg {
	var ops []txn.Op
	for _, p := range paths {
		ops = append(ops, txn.SetData(p, []byte(data), -1))
	}
	return r.lockOps(s, true, ops...)
}

func (r *pipeRig) pushSet(s *pipeSession, path, data string, txid int64) leaderMsg {
	return r.commit(s, r.lockSet(s, path, data), txid)
}

func (r *pipeRig) pushMulti(s *pipeSession, txid int64, data string, paths ...string) leaderMsg {
	return r.commit(s, r.lockMulti(s, data, paths...), txid)
}

func (r *pipeRig) pushCreate(s *pipeSession, path string, txid int64) leaderMsg {
	return r.commit(s, r.lockOps(s, false, txn.Create(path, []byte("c"), 0)), txid)
}

// lockOps locks and validates ops as the follower does (plan.prepare) and
// returns the message it would push: a multi() of them, or the one op.
func (r *pipeRig) lockOps(s *pipeSession, multi bool, ops ...txn.Op) leaderMsg {
	r.t.Helper()
	var p plan
	if i, code, err := p.prepare(r.d, s.ctx, ops, s.id); err != nil || code != CodeOK {
		r.t.Fatalf("op %d: %s %v", i, code, err)
	}
	msg := leaderMsg{Session: s.id, Seq: r.expect(s)}
	if !multi {
		msg.change = p.ops[0]
		msg.LockTs, msg.ParentLockTs = p.lockTs(msg.Path), p.lockTs(msg.ParentPath)
		return msg
	}
	msg.change, msg.Ops = change{Op: OpMulti, Path: anchorPath(p.ops)}, p.ops
	for _, it := range p.items {
		msg.ItemPaths = append(msg.ItemPaths, it.lock.Key)
		msg.ItemLockTs = append(msg.ItemLockTs, it.lock.Timestamp)
	}
	return msg
}

// expect takes s's next sequence number and the future its answer completes.
func (r *pipeRig) expect(s *pipeSession) int64 {
	s.seq++
	s.futs[s.seq] = sim.NewFuture[Response](r.k)
	return s.seq
}

func (r *pipeRig) commit(s *pipeSession, msg leaderMsg, txid int64) leaderMsg {
	r.t.Helper()
	if err := r.d.replayCommit(s.ctx, msg, txid); err != nil {
		r.t.Fatalf("commit %s: %v", msg.Path, err)
	}
	return msg
}

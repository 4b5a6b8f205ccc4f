package core

// Tests of the leader's two-lane software pipeline (distributor.go): what
// may run under a flush in flight, what may not, and that nothing a client
// or a store can observe tells the lanes apart from Algorithm 2's order.
// They drive the deployment through a minimal in-package session (package
// fkclient imports this one) and watch it from three sides: the telemetry
// spans (when each stage and store leg ran), the system store's change
// feed (when each pending entry left its list's head), and a recording
// wrapper around the user store (every write, with its interval).

import (
	"fmt"
	"strings"
	"testing"

	"faaskeeper/internal/cloud"
	"faaskeeper/internal/obs"
	"faaskeeper/internal/sim"
	"faaskeeper/internal/wire"
	"faaskeeper/internal/znode"
)

// pipeFaults is these tests' sim.FaultHook: a targeted crash predicate, a
// function whose every successful batch is delivered once more, and a log
// of when the leader's handler process began each invocation (its crash
// point is the first thing it reaches) and started each storage operation.
type pipeFaults struct {
	crash     func(stage, session string, seq int64) bool
	redeliver string

	k           *sim.Kernel
	leaderHeads []sim.Time
	leaderOps   []sim.Time
}

func (h *pipeFaults) Crash(stage, session string, seq int64) bool {
	if stage == obs.StageCommit {
		h.leaderHeads = append(h.leaderHeads, h.k.Now())
	}
	return h.crash != nil && h.crash(stage, session, seq)
}
func (h *pipeFaults) Redeliver(fn string) bool    { return fn == h.redeliver }
func (*pipeFaults) DeliveryDelay(string) sim.Time { return 0 }
func (h *pipeFaults) OpDelay() sim.Time {
	if h.k.Current().Name() == "trigger:"+FnLeader+":0" {
		h.leaderOps = append(h.leaderOps, h.k.Now())
	}
	return 0
}

// storeCall is one Write or Delete the primary user store served.
type storeCall struct {
	path       string
	mzxid      int64 // 0 for a delete
	start, end sim.Time
}

type pipeRig struct {
	t     *testing.T
	k     *sim.Kernel
	d     *Deployment
	calls []storeCall        // in start order
	pops  map[int64]sim.Time // txid -> instant it left the head of its pending list
}

// recStore records the interval of every mutation of the store it wraps.
type recStore struct {
	UserStore
	rig *pipeRig
}

func (s *recStore) record(path string, mzxid int64, call func() error) error {
	i := len(s.rig.calls)
	s.rig.calls = append(s.rig.calls, storeCall{path: path, mzxid: mzxid, start: s.rig.k.Now()})
	err := call()
	s.rig.calls[i].end = s.rig.k.Now()
	return err
}

func (s *recStore) Write(ctx cloud.Ctx, n *znode.Node, epoch []int64) error {
	return s.record(n.Path, n.Stat.Mzxid, func() error { return s.UserStore.Write(ctx, n, epoch) })
}

func (s *recStore) Delete(ctx cloud.Ctx, path string) error {
	return s.record(path, 0, func() error { return s.UserStore.Delete(ctx, path) })
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
			if !strings.HasPrefix(rec.Key, nodeKeyPrefix) {
				continue
			}
			var head int64
			if p := decodeSysNode(rec.Item).Pending; len(p) > 0 {
				head = p[0]
			}
			if old := heads[rec.Key]; old != 0 && old != head {
				r.pops[old] = k.Now()
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
	order []int64 // seqs in first-arrival order
	resps int     // responses received, duplicates included
	notes []Notification
	arms  int // data watches registered, re-arming on every notification
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
			switch v := pkt.Payload.(type) {
			case Response:
				s.resps++
				if s.futs[v.Seq].TryComplete(v) {
					s.order = append(s.order, v.Seq)
					d.Obs.Tracer.Finish(obs.TraceOf(id, v.Seq))
				}
			case Notification:
				s.notes = append(s.notes, v)
				s.arm(v.Path)
			}
		}
	})
	return s
}

func (s *pipeSession) arm(path string) {
	if _, err := s.rig.d.RegisterWatch(s.ctx, path, WatchData, s.id); err != nil {
		s.rig.t.Errorf("%s: arm %s: %v", s.id, path, err)
	}
	s.arms++
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

// TestPipelineConcurrentInvariants runs the shape of fkclient's
// concurrentTraceWorkload — three sessions pipelining set ×2 / delete /
// create on two shared paths, one re-arming data watch — where invocations
// carry several messages and same-path chains, and checks what no lane
// order may change. Then again with every leader batch delivered twice.
func TestPipelineConcurrentInvariants(t *testing.T) {
	for _, tc := range []struct {
		name string
		hook *pipeFaults
	}{
		{"plain", nil},
		{"leader-batches-redelivered", &pipeFaults{redeliver: FnLeader}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := newPipeRig(t, 4321, Config{}, tc.hook)
			paths := []string{"/s1", "/s2"}
			var sessions []*pipeSession
			for i := 0; i < 3; i++ {
				i := i
				r.k.Go(fmt.Sprintf("session-%d", i), func() {
					s := r.open(fmt.Sprintf("c%d", i))
					sessions = append(sessions, s)
					for _, p := range paths {
						s.do(OpCreate, p, s.id)
					}
					if i == 0 {
						s.arm(paths[0])
					}
					var futs []*sim.Future[Response]
					for j := range paths {
						p := paths[(i+j)%len(paths)]
						for _, op := range []OpCode{OpSetData, OpSetData, OpDelete, OpCreate} {
							futs = append(futs, s.submit(op, p, s.id))
						}
					}
					for _, f := range futs {
						f.Wait()
					}
				})
			}
			r.run()

			for _, s := range sessions {
				if int64(len(s.order)) != s.seq {
					t.Fatalf("%s: %d of %d requests answered", s.id, len(s.order), s.seq)
				}
				var lastSeq, lastTxid int64
				for _, seq := range s.order {
					resp := s.futs[seq].Value()
					switch resp.Code {
					case CodeOK:
					case CodeNoNode, CodeNodeExists:
						// The follower's own verdict on a lost race: it never
						// reached the leader and may overtake what did (the
						// client library re-orders; this session does not).
						continue
					default:
						t.Errorf("%s seq %d: %s", s.id, seq, resp.Code)
						continue
					}
					// The leader answers a session in submission order, which
					// is also its txid order.
					if seq < lastSeq || resp.Txid < lastTxid {
						t.Errorf("%s: seq %d (txid %d) answered after seq %d (txid %d)", s.id, seq, resp.Txid, lastSeq, lastTxid)
					}
					lastSeq, lastTxid = seq, resp.Txid
					trace := obs.TraceOf(s.id, seq)
					respond := r.span(trace, obs.StageRespond).Start
					// A response leaves only after its own flush joined.
					if w := r.span(trace, obs.SpanStoreWrite); respond < w.End {
						t.Errorf("%s seq %d (txid %d): answered at %d, its store write ended at %d", s.id, seq, resp.Txid, respond, w.End)
					}
					// Chunks of one never pop in the commit phase, so a pending
					// entry gone before its own notify was taken by somebody
					// else's awaitCommit: the orphan branch on a live head.
					pop, ok := r.pops[resp.Txid]
					if !ok {
						t.Errorf("%s seq %d: txid %d never popped", s.id, seq, resp.Txid)
					} else if pop < respond {
						t.Errorf("%s seq %d: txid %d popped at %d, before its notify at %d", s.id, seq, resp.Txid, pop, respond)
					}
				}
			}

			// The user store sees one write at a time, in queue order.
			var last int64
			for i, c := range r.calls {
				if i > 0 && c.start < r.calls[i-1].end {
					t.Errorf("user-store calls overlap: %+v then %+v", r.calls[i-1], c)
				}
				if c.path == znode.Root || c.mzxid == 0 {
					continue // a parent's child-list splice, a delete
				}
				if c.mzxid <= last {
					t.Errorf("write of %s at mzxid %d after mzxid %d", c.path, c.mzxid, last)
				}
				last = c.mzxid
			}

			// Every armed watch fired exactly once, in txid order.
			w := sessions[0]
			for _, s := range sessions {
				if s.arms > 0 {
					w = s
				}
			}
			if len(w.notes) < 2 {
				t.Fatalf("only %d notifications: the watch order is not exercised", len(w.notes))
			}
			for i := 1; i < len(w.notes); i++ {
				if w.notes[i].Txid <= w.notes[i-1].Txid {
					t.Errorf("notifications out of txid order: %d then %d", w.notes[i-1].Txid, w.notes[i].Txid)
				}
			}
			armed := 0
			if it, ok := r.d.System.Peek(watchKey(paths[0])); ok {
				armed = len(it.Get(attrWatchData).SL)
			}
			if w.arms != len(w.notes)+armed {
				t.Errorf("%d arms, %d notifications, %d still armed", w.arms, len(w.notes), armed)
			}

			if r.counter("commit_prefetched") == 0 || r.counter("pop_overlapped") == 0 {
				t.Errorf("pipeline never engaged: commit_prefetched %d, pop_overlapped %d",
					r.counter("commit_prefetched"), r.counter("pop_overlapped"))
			}
		})
	}
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

// TestPrefetchAbandonedLeavesFlushAlone: B's follower dies between push and
// commit, so when the leader prefetches B's message under the flush of the
// message ahead of it, its txid is not in the pending list. The prefetch
// must give up after its one read — no poll, no replayed commit, no orphan
// pop under somebody else's flush — and B's message commits in the serial
// position — behind the pop of its
// predecessor — where awaitCommit replays the dead follower's commit.
func TestPrefetchAbandonedLeavesFlushAlone(t *testing.T) {
	crashed := false
	hook := &pipeFaults{crash: func(stage, session string, seq int64) bool {
		if stage != obs.StageLeaderQ || session != "B" || seq != 2 || crashed {
			return false
		}
		crashed = true
		return true
	}}
	r := newPipeRig(t, 7, Config{}, hook)
	loaders := r.backlog(3, 6, func(i int) []string { return []string{fmt.Sprintf("/a%d", i)} })
	var respB Response
	r.k.Go("B", func() {
		b := r.open("B")
		b.do(OpCreate, "/b", "0")
		respB = b.do(OpSetData, "/b", "1")
	})
	r.run()

	if !crashed || respB.Code != CodeOK {
		t.Fatalf("B's set: crashed=%v code=%s", crashed, respB.Code)
	}
	// The message ahead of B's in the leader queue.
	var prev int64
	for _, s := range loaders {
		for seq, f := range s.futs {
			if f.Value().Txid == respB.Txid-1 {
				prev = obs.TraceOf(s.id, seq)
			}
		}
	}
	if prev == 0 {
		t.Fatalf("no loader message at txid %d: the scenario drifted", respB.Txid-1)
	}
	traceB := obs.TraceOf("B", 2)
	flush, peek := r.span(prev, obs.SpanStoreWrite), r.span(traceB, obs.StageCommit).Start
	if peek < flush.Start || peek >= flush.End {
		t.Fatalf("B's commit stage opened at %d, not under the flush ahead of it [%d, %d]: the scenario drifted",
			peek, flush.Start, flush.End)
	}
	ops := 0
	for _, at := range hook.leaderOps {
		if at >= peek && at < flush.End {
			ops++
		}
	}
	if ops != 1 {
		t.Errorf("the leader started %d storage operations between B's prefetch and the end of the flush it ran under, want the one read", ops)
	}
	if pop, w := r.pops[respB.Txid-1], r.span(traceB, obs.SpanStoreWrite); w.Start < pop {
		t.Errorf("B's flush started at %d, before its predecessor's pop at %d: it did not commit in the serial position", w.Start, pop)
	}
}

// TestLeaderTotalContainsPop: a lone message's leader.total is still the
// container of every phase, the pop included. Deferring the pop must not
// take it out of the total (Table 3's leader.total p50 would read 8 ms low).
func TestLeaderTotalContainsPop(t *testing.T) {
	r := newPipeRig(t, 11, Config{}, nil) // the rig turns Telemetry on: phases are recorded
	const writes = 20
	r.k.Go("writer", func() {
		s := r.open("w")
		s.do(OpCreate, "/n", "0")
		for i := 0; i < writes; i++ {
			s.do(OpSetData, "/n", "x")
			r.k.Sleep(sim.Ms(200)) // let the pop finish: every message rides alone
		}
	})
	r.run()

	sum := func(name string) float64 {
		s := r.d.Phase(name)
		if s == nil || s.N() != writes+1 {
			t.Fatalf("%s: %v samples, want %d", name, s, writes+1)
		}
		return s.Mean() * float64(s.N())
	}
	parts := sum("leader.get") + sum("leader.update") + sum("leader.watchquery") + sum("leader.notify") + sum("leader.pop")
	if total := sum("leader.total"); total < parts-1e-6 {
		t.Errorf("leader.total sums to %.3f ms, its phases to %.3f ms: a phase fell out of the total", total, parts)
	}
	if pop := r.d.Phase("leader.pop").Mean(); pop < 3 {
		t.Fatalf("leader.pop mean %.3f ms: the test no longer measures a real pop", pop)
	}
}

// TestSamePathChainNeverPrefetches: three sessions set /a over and over in
// chunks of one. The sets reach the leader in runs, but each needs its
// predecessor popped before its commit check, so nothing is prefetched and
// no pop moves — and both stores end on the last value.
func TestSamePathChainNeverPrefetches(t *testing.T) {
	r := newPipeRig(t, 3, Config{}, nil)
	const sets = 4
	loaders := r.backlog(3, sets, func(int) []string { return []string{"/a"} })
	r.run()

	if inv := r.d.Platform.Function(FnLeader).Invocations(); inv >= 1+3*sets {
		t.Fatalf("%d leader invocations for %d messages: none carried a chain", inv, 1+3*sets)
	}
	if n := r.counter("commit_prefetched") + r.counter("pop_overlapped"); n != 0 {
		t.Errorf("commit_prefetched + pop_overlapped = %d on a same-path chain", n)
	}
	var last Response
	for _, s := range loaders {
		for _, f := range s.futs {
			if resp := f.Value(); resp.Code != CodeOK {
				t.Fatalf("%s seq %d: %s", s.id, resp.Seq, resp.Code)
			} else if resp.Txid > last.Txid {
				last = resp
			}
		}
	}
	if last.Stat.Version != 3*sets {
		t.Errorf("last set has version %d, want %d", last.Stat.Version, 3*sets)
	}
	it, _ := r.d.System.Peek(nodeKey("/a"))
	if sys := decodeSysNode(it); sys.Version != last.Stat.Version || sys.Mzxid != last.Txid || len(sys.Pending) != 0 {
		t.Errorf("system store: %+v, want version %d, mzxid %d, nothing pending", sys, last.Stat.Version, last.Txid)
	}
	if c := r.calls[len(r.calls)-1]; c.path != "/a" || c.mzxid != last.Txid {
		t.Errorf("last user-store write %+v, want /a at mzxid %d", c, last.Txid)
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
			// A pop before the flush is order rule 2's, in the commit phase.
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

// TestAlternatingPathsPrefetch: two sessions each take turns on two paths
// of their own, so no message follows one on its own path directly, but
// many follow one at a distance of two: x y x. The lane order under a
// flush — the pops of the chunk before, then the prefetch of the chunk
// after — is what lets the second x find the first one popped, so every
// message behind the head of its invocation commits under the flush ahead
// of it.
func TestAlternatingPathsPrefetch(t *testing.T) {
	r := newPipeRig(t, 9, Config{}, nil)
	const sets = 8
	r.backlog(2, sets, func(i int) []string { return [][]string{{"/x", "/y"}, {"/u", "/v"}}[i] })
	r.run()

	msgs, inv := int64(2*(2+sets)), r.d.Platform.Function(FnLeader).Invocations()
	if got := r.counter("commit_prefetched"); got != msgs-inv || got < sets {
		t.Errorf("%d messages in %d invocations, %d commits prefetched: want every message behind its invocation's head, and at least %d",
			msgs, inv, got, sets)
	}
}

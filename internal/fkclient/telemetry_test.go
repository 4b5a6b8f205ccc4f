package fkclient

// End-to-end tests of the virtual-time telemetry subsystem (package obs):
// span-tree invariants across every pipeline variant, the exactly-once
// close discipline, stage telescoping against client-observed latency,
// and the no-timing-drift guarantee (telemetry on must not move the
// golden trace by a nanosecond).

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"faaskeeper/internal/core"
	"faaskeeper/internal/obs"
	"faaskeeper/internal/sim"
	"faaskeeper/internal/txn"
)

// stageNames classifies a span as part of the telescoping stage chain
// (every other named span is a concurrent child leg).
var stageNames = map[string]bool{
	obs.StageSubmit: true, obs.StageQueue: true, obs.StageValidate: true,
	obs.StageRetry: true, obs.StageLeaderQ: true, obs.StageCommit: true,
	obs.StageFlush: true, obs.StageRespond: true, obs.StageTxnPrep: true,
	obs.StageTxnCommit: true, obs.StageTxnApply: true,
}

// checkSpanTrees asserts the tracer's global invariants and, per trace:
// exactly one root, every span parented to it (one connected tree, depth
// one — trivially acyclic), stages contiguous from root start to root end
// with durations summing exactly to the root span.
func checkSpanTrees(t *testing.T, tr *obs.Tracer) int {
	t.Helper()
	if n := tr.OpenCount(); n != 0 {
		t.Fatalf("%d spans left open (every span must close exactly once)", n)
	}
	if errs := tr.Errors(); len(errs) != 0 {
		t.Fatalf("tracer invariant violations: %v", errs)
	}
	byTrace := map[int64][]obs.Span{}
	for _, sp := range tr.Spans() {
		if sp.End < sp.Start {
			t.Fatalf("span %s ends before it starts: %+v", sp.Name, sp)
		}
		byTrace[sp.Trace] = append(byTrace[sp.Trace], sp)
	}
	for trace, spans := range byTrace {
		if trace == 0 {
			// Pipeline-track spans (batched flush legs): no tree to check
			// beyond well-formedness above.
			continue
		}
		var root *obs.Span
		for i := range spans {
			if spans[i].Parent == 0 {
				if root != nil {
					t.Fatalf("trace %d has two roots: %+v and %+v", trace, *root, spans[i])
				}
				root = &spans[i]
			}
		}
		if root == nil {
			t.Fatalf("trace %d has no root span", trace)
		}
		var stages []obs.Span
		for _, sp := range spans {
			if sp.Parent == 0 {
				continue
			}
			if sp.Parent != root.ID {
				t.Fatalf("trace %d: span %q parented to %d, want root %d (disconnected tree)",
					trace, sp.Name, sp.Parent, root.ID)
			}
			if stageNames[sp.Name] {
				stages = append(stages, sp)
			}
		}
		if len(stages) == 0 {
			t.Fatalf("trace %d has no stage spans", trace)
		}
		sort.Slice(stages, func(i, j int) bool { return stages[i].Start < stages[j].Start })
		if stages[0].Start != root.Start {
			t.Fatalf("trace %d: first stage %q starts at %d, root at %d",
				trace, stages[0].Name, stages[0].Start, root.Start)
		}
		if last := stages[len(stages)-1]; last.End != root.End {
			t.Fatalf("trace %d: last stage %q ends at %d, root at %d",
				trace, last.Name, last.End, root.End)
		}
		var sum sim.Time
		for i, sp := range stages {
			if i > 0 && sp.Start != stages[i-1].End {
				t.Fatalf("trace %d: gap in stage chain between %q (end %d) and %q (start %d)",
					trace, stages[i-1].Name, stages[i-1].End, sp.Name, sp.Start)
			}
			sum += sp.End - sp.Start
		}
		if sum != root.End-root.Start {
			t.Fatalf("trace %d: stage durations sum to %d, root span is %d",
				trace, sum, root.End-root.Start)
		}
	}
	return len(byTrace)
}

// TestTelemetryOffTraceByteIdentical is the no-drift guard: spans are pure
// bookkeeping, so enabling telemetry must not move a single virtual
// timestamp of the golden workload — and with it the pinned golden hash.
func TestTelemetryOffTraceByteIdentical(t *testing.T) {
	base := traceWorkload(t, core.Config{})
	traced := traceWorkload(t, core.Config{Telemetry: true})
	if !bytes.Equal(base, traced) {
		t.Fatalf("Telemetry:true shifted the virtual-time trace:\n--- off ---\n%s--- on ---\n%s", base, traced)
	}
}

// TestDefaultConfigStoreWriteIsTheRequestsChild pins the attribution rule
// for one-message chunks: on the default configuration the distribution is
// the request's own, so every SetData's span tree carries a store.write
// child under the request's trace (never a trace-0 pipeline span) — also
// when sessions race and leader invocations carry several messages.
func TestDefaultConfigStoreWriteIsTheRequestsChild(t *testing.T) {
	run(t, 91, core.Config{Telemetry: true}, func(k *sim.Kernel, d *core.Deployment) {
		setup := mustConnect(t, d, "setup")
		if _, err := setup.Create("/n", nil, 0); err != nil {
			t.Fatalf("create: %v", err)
		}
		var traces []int64
		done := sim.NewWaitGroup(k)
		for i := 0; i < 3; i++ {
			c := mustConnect(t, d, fmt.Sprintf("w%d", i))
			done.Add(1)
			k.Go("writer-"+c.ID(), func() {
				defer done.Done()
				defer c.Close()
				for op := 0; op < 4; op++ {
					if _, err := c.SetData("/n", []byte{byte(op)}, -1); err != nil {
						t.Errorf("%s set %d: %v", c.ID(), op, err)
					}
					traces = append(traces, obs.TraceOf(c.ID(), c.nextSeq))
				}
			})
		}
		done.Wait()
		setup.Close()
		tr := d.Obs.Tracer
		checkSpanTrees(t, tr)
		for _, trace := range traces {
			found := false
			for _, sp := range tr.TraceSpans(trace) {
				found = found || (sp.Name == obs.SpanStoreWrite && sp.Path == "/n" && sp.Parent != 0)
			}
			if !found {
				t.Errorf("trace %d: no store.write child under the request's trace", trace)
			}
		}
		for _, sp := range tr.TraceSpans(0) {
			if sp.Name == obs.SpanStoreWrite {
				t.Errorf("trace-0 pipeline store.write span on the default configuration: %+v", sp)
			}
		}
	})
}

// TestStageSumMatchesClientLatency drives sequential writes and checks
// each root span's endpoints against the client-observed virtual times:
// the chain opens at submission, closes at response release, and the
// stage durations sum exactly to that end-to-end latency.
func TestStageSumMatchesClientLatency(t *testing.T) {
	run(t, 77, core.Config{Telemetry: true}, func(k *sim.Kernel, d *core.Deployment) {
		c := mustConnect(t, d, "lat")
		type window struct{ t0, t1 sim.Time }
		windows := map[int64]window{}
		t0 := k.Now()
		if _, err := c.Create("/lat", []byte("x"), 0); err != nil {
			t.Fatalf("create: %v", err)
		}
		windows[obs.TraceOf("lat", 1)] = window{t0, k.Now()}
		t0 = k.Now()
		if _, err := c.SetData("/lat", []byte("y"), -1); err != nil {
			t.Fatalf("set: %v", err)
		}
		windows[obs.TraceOf("lat", 2)] = window{t0, k.Now()}
		t0 = k.Now()
		if err := c.Delete("/lat", -1); err != nil {
			t.Fatalf("delete: %v", err)
		}
		windows[obs.TraceOf("lat", 3)] = window{t0, k.Now()}

		tr := d.Obs.Tracer
		for trace, w := range windows {
			spans := tr.TraceSpans(trace)
			var root *obs.Span
			for i := range spans {
				if spans[i].Parent == 0 {
					root = &spans[i]
				}
			}
			if root == nil {
				t.Fatalf("trace %d: no root", trace)
			}
			if root.Start != w.t0 || root.End != w.t1 {
				t.Fatalf("trace %d: root [%d,%d], client observed [%d,%d]",
					trace, root.Start, root.End, w.t0, w.t1)
			}
		}
		checkSpanTrees(t, tr)
	})
}

// telemetryConfigs is the pipeline matrix the randomized invariant test
// sweeps: every combination exercises a different set of stage
// transitions (batched folds, cache invalidation legs, single-shard and
// cross-shard transactions).
var telemetryConfigs = []struct {
	name   string
	cfg    core.Config
	multis bool // the workload issues multi() transactions
}{
	{"plain", core.Config{Telemetry: true}, false},
	{"sharded", core.Config{Telemetry: true, WriteShards: 4}, false},
	{"batched", core.Config{Telemetry: true, WriteShards: 2, BatchWrites: true}, false},
	{"cached", core.Config{Telemetry: true, CacheMode: core.CacheTwoLevel}, false},
	{"txn", core.Config{Telemetry: true, WriteShards: 4}, true},
	{"txn-batched", core.Config{Telemetry: true, WriteShards: 2, BatchWrites: true}, true},
}

// TestSpanInvariantsRandomized runs a seeded random workload (pipelined
// writes, watches, single- and cross-shard multis, failure responses)
// over the config matrix and checks every trace forms one connected,
// telescoping span tree with every span closed exactly once.
func TestSpanInvariantsRandomized(t *testing.T) {
	for _, tc := range telemetryConfigs {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			run(t, 424242, tc.cfg, func(k *sim.Kernel, d *core.Deployment) {
				rng := rand.New(rand.NewSource(99))
				c := mustConnect(t, d, "rnd")
				paths := make([]string, 6)
				for i := range paths {
					paths[i] = fmt.Sprintf("/r%d", i)
					if _, err := c.Create(paths[i], []byte("seed"), 0); err != nil {
						t.Fatalf("seed create %s: %v", paths[i], err)
					}
				}
				var futs []*sim.Future[core.Response]
				for i := 0; i < 40; i++ {
					p := paths[rng.Intn(len(paths))]
					switch rng.Intn(6) {
					case 0:
						futs = append(futs, c.submitWrite(core.OpSetData, p, []byte(fmt.Sprint(i)), -1, 0))
					case 1:
						futs = append(futs, c.submitWrite(core.OpCreate, p+fmt.Sprintf("/c%d", i), nil, -1, 0))
					case 2:
						// A doomed write: version mismatch answers from the
						// follower (failure chains must telescope too).
						futs = append(futs, c.submitWrite(core.OpSetData, p, nil, 9999, 0))
					case 3:
						_, _, _ = c.GetDataW(p, func(core.Notification) {})
					case 4:
						if tc.multis {
							// Spans two top-level subtrees: cross-shard 2PC
							// on the sharded configs, fast path otherwise.
							q := paths[(rng.Intn(len(paths)-1)+1+rng.Intn(1))%len(paths)]
							_, _ = c.Multi(
								txn.SetData(p, []byte("m"), -1),
								txn.SetData(q, []byte("m"), -1),
							)
						}
					default:
						futs = append(futs, c.submitWrite(core.OpSetData, p, []byte("w"), -1, 0))
					}
				}
				for _, f := range futs {
					f.Wait()
				}
				if err := c.Close(); err != nil {
					t.Fatalf("close: %v", err)
				}
				traces := checkSpanTrees(t, d.Obs.Tracer)
				if traces < 20 {
					t.Fatalf("expected a substantial trace population, got %d", traces)
				}
			})
		})
	}
}

// TestSpanInvariantsMidReshard checks the chain survives the retry hop: a
// live subtree split lands while traced writes are in flight, so some
// requests re-route (client.submit … follower.retry → follower.validate)
// and stranded duplicates must not corrupt or leak spans.
func TestSpanInvariantsMidReshard(t *testing.T) {
	run(t, 31337, core.Config{Telemetry: true, WriteShards: 2, DynamicShards: true},
		func(k *sim.Kernel, d *core.Deployment) {
			c := mustConnect(t, d, "resh")
			if _, err := c.Create("/hot", nil, 0); err != nil {
				t.Fatalf("create: %v", err)
			}
			var futs []*sim.Future[core.Response]
			for i := 0; i < 12; i++ {
				futs = append(futs, c.submitWrite(core.OpCreate, fmt.Sprintf("/hot/n%d", i), []byte("v"), -1, 0))
			}
			if err := d.SplitSubtree("/hot", 2); err != nil {
				t.Fatalf("split: %v", err)
			}
			for i := 12; i < 24; i++ {
				futs = append(futs, c.submitWrite(core.OpCreate, fmt.Sprintf("/hot/n%d", i), []byte("v"), -1, 0))
			}
			for _, f := range futs {
				if r := f.Wait(); r.Code != core.CodeOK {
					t.Fatalf("write failed: %+v", r)
				}
			}
			if err := c.Close(); err != nil {
				t.Fatalf("close: %v", err)
			}
			checkSpanTrees(t, d.Obs.Tracer)
		})
}

// TestTelemetryExports runs a traced workload and round-trips all three
// exporters: the Chrome trace must validate and contain the pipeline's
// stage names, the span log and Prometheus dump must render.
func TestTelemetryExports(t *testing.T) {
	run(t, 55, core.Config{Telemetry: true}, func(k *sim.Kernel, d *core.Deployment) {
		c := mustConnect(t, d, "exp")
		if _, err := c.Create("/e", []byte("1"), 0); err != nil {
			t.Fatalf("create: %v", err)
		}
		if _, err := c.SetData("/e", []byte("2"), -1); err != nil {
			t.Fatalf("set: %v", err)
		}
		spans := d.Obs.Tracer.Spans()
		var chrome bytes.Buffer
		if err := obs.WriteChromeTrace(&chrome, spans); err != nil {
			t.Fatalf("chrome export: %v", err)
		}
		names, err := obs.ValidateChromeTrace(chrome.Bytes())
		if err != nil {
			t.Fatalf("chrome validate: %v", err)
		}
		for _, want := range []string{obs.StageSubmit, obs.StageQueue, obs.StageValidate,
			obs.StageLeaderQ, obs.StageCommit, obs.StageFlush, obs.StageRespond,
			obs.SpanFollowerCommit, obs.SpanStoreWrite} {
			if names[want] == 0 {
				t.Fatalf("chrome trace missing stage %q (have %v)", want, names)
			}
		}
		var prom, log bytes.Buffer
		if err := obs.WritePrometheus(&prom, d.Obs.Metrics); err != nil {
			t.Fatalf("prometheus export: %v", err)
		}
		if !bytes.Contains(prom.Bytes(), []byte("fk_span_")) {
			t.Fatalf("prometheus dump missing span histograms:\n%s", prom.String())
		}
		if err := obs.WriteSpanLog(&log, spans); err != nil {
			t.Fatalf("span log export: %v", err)
		}
	})
}

package fkclient

// End-to-end tests of the virtual-time telemetry subsystem (package obs):
// the store-write attribution rule, stage telescoping against
// client-observed latency, the exporters, and the no-timing-drift
// guarantee (telemetry on must not move the golden trace by a nanosecond).
// The span-tree rules themselves are obs.Hub.Verify's; chaos runs them on
// its traced seeds, on every matrix row under faults.

import (
	"bytes"
	"fmt"
	"testing"

	"faaskeeper/internal/core"
	"faaskeeper/internal/obs"
	"faaskeeper/internal/sim"
)

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
		for _, f := range d.Obs.Verify() {
			t.Error(f)
		}
		tr := d.Obs.Tracer
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
		for _, f := range d.Obs.Verify() {
			t.Error(f)
		}
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

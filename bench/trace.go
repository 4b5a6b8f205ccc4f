package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"faaskeeper/internal/obs"
)

// benchSpanID offsets the benchmark's root span ids clear of the tracer's.
const benchSpanID = 1 << 40

// benchSpanLine is one root span in <workload>.bench_spans.jsonl.
type benchSpanLine struct {
	Op      string `json:"op"`
	Path    string `json:"path"`
	Session string `json:"session"`
	Seq     int64  `json:"seq,omitempty"`
	Trace   int64  `json:"trace"`
	VStart  int64  `json:"virtual_start_ns"`
	VEnd    int64  `json:"virtual_end_ns"`
	HStart  int64  `json:"host_start_ns"` // from the start of the timed window
	HEnd    int64  `json:"host_end_ns"`
	// SelfNs is the root span minus the stage spans under it: the virtual
	// time of the call that no pipeline stage accounts for.
	SelfNs int64 `json:"self_ns"`
}

// writeTraceFiles writes the traced pass's artefacts into dir:
//
//	<workload>.trace.json        Chrome trace of the last spanKeep requests:
//	                             the benchmark's root span over the obs tree
//	<workload>.spans.jsonl       the same spans, one JSON object per line
//	<workload>.bench_spans.jsonl the root spans with both clocks
//	<workload>.prom              Prometheus dump of the obs registry
func writeTraceFiles(dir string, w *workload, p *passResult) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	byTrace := map[int64][]obs.Span{}
	for _, sp := range p.obsSpans {
		if sp.Trace != 0 {
			byTrace[sp.Trace] = append(byTrace[sp.Trace], sp)
		}
	}
	stageSet := map[string]bool{}
	for _, s := range stages {
		stageSet[s.span] = true
	}
	var joined []obs.Span
	lines := make([]benchSpanLine, 0, len(p.benchSpans))
	for i, b := range p.benchSpans {
		session := fmt.Sprintf("s%02d", b.sess)
		op, trace := "get_data", obs.TraceOf(session+"#read", int64(i))
		if b.class == clsWrite {
			op, trace = "set_data", obs.TraceOf(session, b.seq)
		}
		path := fmt.Sprintf("/n%04d", b.node)
		root := obs.Span{
			ID: benchSpanID + int64(i), Trace: trace, Name: "bench." + op, Path: path,
			Start: b.vstart, End: b.vend,
		}
		joined = append(joined, root)
		self := b.vend - b.vstart
		for _, sp := range byTrace[trace] {
			if sp.Parent == 0 {
				sp.Parent = root.ID
			} else if stageSet[sp.Name] {
				self -= sp.End - sp.Start
			}
			joined = append(joined, sp)
		}
		lines = append(lines, benchSpanLine{
			Op: op, Path: path, Session: session, Seq: b.seq, Trace: trace,
			VStart: int64(b.vstart), VEnd: int64(b.vend),
			HStart: b.hstart.Sub(p.wallStart).Nanoseconds(),
			HEnd:   b.hend.Sub(p.wallStart).Nanoseconds(),
			SelfNs: int64(self),
		})
	}
	base := filepath.Join(dir, w.name)
	if err := writeFile(base+".trace.json", func(out *bufio.Writer) error {
		return obs.WriteChromeTrace(out, joined)
	}); err != nil {
		return err
	}
	if err := writeFile(base+".spans.jsonl", func(out *bufio.Writer) error {
		return obs.WriteSpanLog(out, joined)
	}); err != nil {
		return err
	}
	if err := writeFile(base+".bench_spans.jsonl", func(out *bufio.Writer) error {
		enc := json.NewEncoder(out)
		for _, l := range lines {
			if err := enc.Encode(l); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}
	return writeFile(base+".prom", func(out *bufio.Writer) error {
		return obs.WritePrometheus(out, p.hub.Metrics)
	})
}

// writeFile creates path, lets fill write it through a buffer, and
// reports the first error of fill, flush and close.
func writeFile(path string, fill func(*bufio.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	out := bufio.NewWriter(f)
	err = fill(out)
	if err == nil {
		err = out.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

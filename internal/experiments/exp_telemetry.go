package experiments

import (
	"bytes"
	"fmt"

	"faaskeeper/internal/core"
	"faaskeeper/internal/fkclient"
	"faaskeeper/internal/obs"
	"faaskeeper/internal/sim"
	"faaskeeper/internal/stats"
	"faaskeeper/internal/txn"
)

func init() {
	register(Experiment{
		ID:    "telemetry",
		Title: "Virtual-time telemetry: per-stage latency breakdown of the write pipeline",
		Ref:   "beyond the paper (ROADMAP: metrics stream)",
		Run:   runTelemetry,
	})
}

// telemetryStages is the telescoping stage chain in pipeline order; every
// request's stage spans partition [submit, respond] exactly, so the
// per-stage means in the tables sum to the end-to-end mean.
var telemetryStages = []string{
	obs.StageSubmit, obs.StageQueue, obs.StageValidate,
	obs.StageLeaderQ, obs.StageCommit, obs.StageFlush,
	obs.StageTxnPrep, obs.StageTxnCommit, obs.StageTxnApply,
	obs.StageRespond,
}

// telemetryRun is one traced workload's span analysis.
type telemetryRun struct {
	traces   int                      // distinct request trace trees
	spans    int                      // closed spans, including children
	open     int                      // spans left open (must be 0)
	errs     int                      // tracer invariant violations (must be 0)
	perStage map[string]*stats.Sample // stage-span durations, ms
	e2e      *stats.Sample            // root-span durations, ms
	sumOK    bool                     // every trace: Σ stage durations == root duration
	chromeOK bool                     // exported Chrome trace parses with expected stages
}

// stageMean returns the mean duration of one stage in ms, or 0 when the
// workload never entered that stage.
func (r telemetryRun) stageMean(stage string) float64 {
	s := r.perStage[stage]
	if s == nil || s.N() == 0 {
		return 0
	}
	return s.Mean()
}

// analyzeSpans derives the run's tables from the tracer's closed spans.
func analyzeSpans(tr *obs.Tracer, wantStages []string) telemetryRun {
	res := telemetryRun{
		perStage: map[string]*stats.Sample{},
		e2e:      stats.NewSample(256),
		open:     tr.OpenCount(),
		errs:     len(tr.Errors()),
		sumOK:    true,
	}
	stageSet := map[string]bool{}
	for _, s := range telemetryStages {
		stageSet[s] = true
	}
	spans := tr.Spans()
	res.spans = len(spans)
	type tree struct {
		root     obs.Span
		hasRoot  bool
		stageSum sim.Time
	}
	trees := map[int64]*tree{}
	for _, sp := range spans {
		if sp.Trace == 0 {
			continue // pipeline-level span (batched flush), not a request leg
		}
		t := trees[sp.Trace]
		if t == nil {
			t = &tree{}
			trees[sp.Trace] = t
		}
		switch {
		case sp.Parent == 0:
			t.root, t.hasRoot = sp, true
			res.e2e.AddDur(sp.End - sp.Start)
		case stageSet[sp.Name]:
			t.stageSum += sp.End - sp.Start
			s := res.perStage[sp.Name]
			if s == nil {
				s = stats.NewSample(256)
				res.perStage[sp.Name] = s
			}
			s.AddDur(sp.End - sp.Start)
		}
	}
	res.traces = len(trees)
	for _, t := range trees {
		if !t.hasRoot || t.stageSum != t.root.End-t.root.Start {
			res.sumOK = false
		}
	}

	// The exporter round trip: the Chrome trace-event file must parse and
	// name every stage the workload was expected to pass through.
	var buf bytes.Buffer
	if err := obs.WriteChromeTrace(&buf, spans); err == nil {
		if names, err := obs.ValidateChromeTrace(buf.Bytes()); err == nil {
			res.chromeOK = true
			for _, want := range wantStages {
				if names[want] == 0 {
					res.chromeOK = false
				}
			}
		}
	}
	return res
}

// runTelemetryWorkload drives sessions clients with telemetry on and
// returns the span analysis. Modes: "plain" (sequential set_data) and
// "txn" (cross-shard multi per op).
func runTelemetryWorkload(seed int64, cfg core.Config, mode string, sessions, ops int) telemetryRun {
	cfg.Telemetry = true
	k := sim.NewKernel(seed)
	d := core.NewDeployment(k, cfg)
	var res telemetryRun
	wantStages := []string{
		obs.StageSubmit, obs.StageQueue, obs.StageValidate, obs.StageRespond,
	}
	if mode == "txn" {
		// Cross-shard multis run the coordinator: prepare/commit/apply replace the
		// plain pipeline's leader-queue/commit/flush legs entirely.
		wantStages = append(wantStages,
			obs.StageTxnPrep, obs.StageTxnCommit, obs.StageTxnApply)
	} else {
		wantStages = append(wantStages,
			obs.StageLeaderQ, obs.StageCommit, obs.StageFlush)
	}
	k.Go("driver", func() {
		setup, err := fkclient.Connect(d, "setup", d.Cfg.Profile.Home)
		if err != nil {
			return
		}
		paths := uniformPaths(sessions)
		for _, p := range paths {
			if _, err := setup.Create(p, nil, 0); err != nil {
				return
			}
		}
		clients := make([]*fkclient.Client, sessions)
		for i := range clients {
			c, err := fkclient.Connect(d, fmt.Sprintf("s%d", i), d.Cfg.Profile.Home)
			if err != nil {
				return
			}
			clients[i] = c
		}
		// Discard the setup phase's spans so the tables only describe the
		// measured workload.
		d.ResetMetrics()
		payload := bytes.Repeat([]byte("x"), 128)
		done := sim.NewWaitGroup(k)
		for i := range clients {
			i := i
			done.Add(1)
			k.Go(fmt.Sprintf("writer-%d", i), func() {
				defer done.Done()
				for op := 0; op < ops; op++ {
					switch mode {
					case "txn":
						// Adjacent uniform paths live on different shards,
						// so every multi crosses shards and runs the coordinator.
						partner := paths[(i+1)%len(paths)]
						_, _ = clients[i].Multi(
							txn.SetData(paths[i], payload, -1),
							txn.SetData(partner, payload, -1))
					default:
						_, _ = clients[i].SetData(paths[i], payload, -1)
					}
				}
			})
		}
		done.Wait()
		for _, c := range clients {
			c.Close()
		}
		setup.Close()
		res = analyzeSpans(d.Obs.Tracer, wantStages)
	})
	k.Run()
	k.Shutdown()
	return res
}

// stageBreakdownRow renders one run as the shared per-stage columns.
func stageBreakdownRow(label string, run telemetryRun) []string {
	queueing := run.stageMean(obs.StageQueue) + run.stageMean(obs.StageLeaderQ)
	row := []string{
		label,
		fmt.Sprintf("%d", run.traces),
		f2(run.stageMean(obs.StageSubmit)),
		f2(queueing),
		f2(run.stageMean(obs.StageValidate)),
		f2(run.stageMean(obs.StageCommit)),
		f2(run.stageMean(obs.StageFlush)),
		f2(run.stageMean(obs.StageRespond)),
		f2(run.e2e.Percentile(50)),
		check(run.sumOK),
		check(run.chromeOK),
	}
	return row
}

func check(ok bool) string {
	if ok {
		return "yes"
	}
	return "NO"
}

func runTelemetry(cfg RunConfig) *Report {
	r := &Report{
		ID:    "telemetry",
		Title: "Per-stage latency breakdown from causal request traces",
		Ref:   "beyond the paper (ROADMAP: metrics stream)",
	}
	sessions := 8
	ops := cfg.reps(6, 20)
	cols := []string{"configuration", "reqs", "submit", "queueing", "validate",
		"commit", "flush", "respond", "e2e p50", "Σ=e2e", "chrome"}

	s := r.AddSection(
		fmt.Sprintf("Stage means (ms) vs shard count (plain writes; %d sessions × %d ops of 128 B)", sessions, ops),
		cols)
	for _, n := range []int{1, 2, 4} {
		run := runTelemetryWorkload(cfg.Seed+int64(n), core.Config{WriteShards: n}, "plain", sessions, ops)
		s.AddRow(stageBreakdownRow(fmt.Sprintf("%d shards", n), run)...)
	}

	s2 := r.AddSection(
		fmt.Sprintf("Stage means (ms) vs batch size (BatchWrites, 2 shards; %d sessions × %d ops)", sessions, ops),
		cols)
	for _, mb := range []int{1, 4, 16} {
		run := runTelemetryWorkload(cfg.Seed+100+int64(mb),
			core.Config{WriteShards: 2, BatchWrites: true, MaxBatch: mb}, "plain", sessions, ops)
		s2.AddRow(stageBreakdownRow(fmt.Sprintf("max batch %d", mb), run)...)
	}

	s3 := r.AddSection(
		"Request classes: span-tree validity (one connected tree per request; stage sums equal end-to-end latency)",
		[]string{"class", "reqs", "spans", "open", "violations", "Σ=e2e", "chrome"})
	classes := []struct {
		label string
		cfg   core.Config
		mode  string
	}{
		{"plain", core.Config{WriteShards: 2}, "plain"},
		{"batched", core.Config{WriteShards: 2, BatchWrites: true}, "plain"},
		{"cross-shard txn", core.Config{WriteShards: 4}, "txn"},
	}
	for i, c := range classes {
		run := runTelemetryWorkload(cfg.Seed+200+int64(i), c.cfg, c.mode, sessions, ops)
		s3.AddRow(c.label,
			fmt.Sprintf("%d", run.traces), fmt.Sprintf("%d", run.spans),
			fmt.Sprintf("%d", run.open), fmt.Sprintf("%d", run.errs),
			check(run.sumOK), check(run.chromeOK))
	}

	r.Note("Spans live in virtual time and record pure bookkeeping, so enabling telemetry does not move a single virtual timestamp — the golden single-shard trace stays byte-identical.")
	r.Note("Queueing covers both the client-side session FIFO and the leader queue wait; cross-shard multis replace commit/flush with the coordinator stages (part pushes, all-items commit + ready barrier, apply), which the class table validates via the exported Chrome trace.")
	return r
}

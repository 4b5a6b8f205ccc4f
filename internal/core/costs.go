package core

// Cost-attribution glue: the sinks the pipeline hangs off cloud.Ctx.Bill
// so that every metered charge — function GB-s, store read/write units
// (including conditional-write retries), queue deliveries, cache hits and
// VM accrual, watch pushes — lands in the deployment's cost ledger exactly
// once, attributed to the request that caused it and to the open span
// covering the work. Every helper returns its input unchanged (or nil)
// when Config.CostAccounting is off, so the instrumentation points cost
// nothing on the default configuration.
//
// Attribution must ride the context rather than any "current request"
// global: cloud primitives Sleep before charging, and the simulator's
// cooperative scheduler interleaves dozens of requests across those
// yields — by the time a charge fires, some other request is "current".
// The same cooperative scheduling is why the ledger needs no locks: only
// one process runs at a time.

import "faaskeeper/internal/cloud"

// costOn reports whether the cost ledger records.
func (d *Deployment) costOn() bool {
	return d.Obs != nil && d.Obs.Cost.Enabled()
}

// costReqTrace returns the trace a request's charges are billed to, or 0
// (the system bucket) for deregistrations and other untraced requests.
// Unlike the telemetry helpers it does not gate on Config.Telemetry:
// dollar attribution works on deployments that never record spans.
func costReqTrace(req Request) int64 {
	if !tracedReq(req) {
		return 0
	}
	return req.trace()
}

// costMsgTrace is costReqTrace for the leader hop.
func costMsgTrace(msg leaderMsg) int64 {
	if !tracedMsg(msg) {
		return 0
	}
	return msg.trace()
}

// traceBill charges one request's trace (and, when span is a live span
// id, folds the dollars into that span so per-stage costs telescope).
type traceBill struct {
	d      *Deployment
	trace  int64
	span   int64
	shard  int
	region string
}

func (b *traceBill) BillOp(cat string, usd float64, n int64) {
	pd := b.d.Obs.Cost.Charge(cat, b.shard, b.region, usd, n)
	b.d.Obs.Cost.Attribute(b.trace, pd)
	b.d.Obs.Tracer.AddCost(b.trace, b.span, pd)
}

// foldBill amortizes a batched charge across the requests the fold
// serves: integer division splits the picodollars, with the remainder
// handed out one picodollar at a time to the leading traces so the split
// is deterministic and sums exactly to the charge. Untraced members
// (trace 0) keep their share in the system bucket.
type foldBill struct {
	d      *Deployment
	traces []int64
	shard  int
	region string
}

func (b *foldBill) BillOp(cat string, usd float64, n int64) {
	pd := b.d.Obs.Cost.Charge(cat, b.shard, b.region, usd, n)
	m := int64(len(b.traces))
	if m == 0 {
		b.d.Obs.Cost.Attribute(0, pd)
		return
	}
	share := pd / m
	rem := pd - share*m
	for i, tr := range b.traces {
		p := share
		if int64(i) < rem {
			p++
		}
		if p == 0 {
			continue
		}
		b.d.Obs.Cost.Attribute(tr, p)
		b.d.Obs.Tracer.AddCost(tr, 0, p)
	}
}

// billReq returns ctx billing every charge to the request's trace.
func (d *Deployment) billReq(ctx cloud.Ctx, req Request, shard int) cloud.Ctx {
	if !d.costOn() {
		return ctx
	}
	ctx.Bill = &traceBill{d: d, trace: costReqTrace(req), shard: shard}
	return ctx
}

// billMsg returns ctx billing every charge to the leader message's trace.
func (d *Deployment) billMsg(ctx cloud.Ctx, msg leaderMsg) cloud.Ctx {
	if !d.costOn() {
		return ctx
	}
	ctx.Bill = &traceBill{d: d, trace: costMsgTrace(msg), shard: msg.Shard}
	return ctx
}

// billSys returns ctx billing charges to the system bucket: control-plane
// work (heartbeats) no single request caused.
func (d *Deployment) billSys(ctx cloud.Ctx, shard int) cloud.Ctx {
	if !d.costOn() {
		return ctx
	}
	ctx.Bill = &traceBill{d: d, shard: shard}
	return ctx
}

// billSpan returns ctx billing charges to an explicit trace and folding
// them into the open span id (reqSpan/tspan result; 0 falls back to the
// trace's current stage).
func (d *Deployment) billSpan(ctx cloud.Ctx, trace, span int64, shard int, region string) cloud.Ctx {
	if !d.costOn() {
		return ctx
	}
	ctx.Bill = &traceBill{d: d, trace: trace, span: span, shard: shard, region: region}
	return ctx
}

// billFold returns ctx amortizing charges across the fold's traces.
func (d *Deployment) billFold(ctx cloud.Ctx, traces []int64, shard int, region string) cloud.Ctx {
	if !d.costOn() {
		return ctx
	}
	ctx.Bill = &foldBill{d: d, traces: traces, shard: shard, region: region}
	return ctx
}

// BillRequestCtx returns ctx attributing charges to the request's trace —
// the client library's hook for billing the session-queue ingress send to
// the request it carries.
func (d *Deployment) BillRequestCtx(ctx cloud.Ctx, req Request) cloud.Ctx {
	return d.billReq(ctx, req, 0)
}

// BillSystemCtx returns ctx attributing charges to the ledger's system
// bucket — the client library's hook for its read path (reads are
// untraced; their store, cache, and queue charges still enter the ledger
// so $/1M-requests totals cover the whole workload).
func (d *Deployment) BillSystemCtx(ctx cloud.Ctx) cloud.Ctx {
	return d.billSys(ctx, 0)
}

// invBill returns the sink that amortizes an invocation's compute charge
// (GB-s for the whole sandbox run) across the batch's traces, or nil when
// accounting is off — faas.Invocation.Bill left nil keeps the charge out
// of the ledger entirely, matching every other unattributed meter charge.
func (d *Deployment) invBill(traces []int64, shard int) cloud.BillSink {
	if !d.costOn() {
		return nil
	}
	return &foldBill{d: d, traces: traces, shard: shard}
}

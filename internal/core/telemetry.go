package core

// Telemetry glue: the handful of helpers the pipeline stages call to move
// a request's causal span chain forward (package obs). Every helper
// early-returns before touching the tracer — or even minting a trace id —
// when telemetry is off, so the instrumentation points cost nothing on the
// default configuration.

// traceOn reports whether span collection is active.
func (d *Deployment) traceOn() bool {
	return d.Obs != nil && d.Obs.Tracer.Enabled()
}

// tracedReq reports whether a request participates in causal tracing.
// Deregistrations are excluded: their fan-out acks and Seq:-1 ephemeral
// deletes don't follow the one-request-one-span-chain shape.
func tracedReq(req Request) bool {
	return req.Seq > 0 && req.Op != OpDeregister
}

// tracedMsg is tracedReq for the leader hop. OpTxnCommit is additionally
// excluded from *stage* transitions — the cross-shard commit fans one
// request into per-shard messages, and its stages are advanced by the
// coordinating follower instead — and OpReshardFence carries no request.
func tracedMsg(msg leaderMsg) bool {
	return msg.Seq > 0 && msg.Op != OpDeregister &&
		msg.Op != OpTxnCommit && msg.Op != OpReshardFence
}

// stageReq advances the request's span chain to the named stage.
func (d *Deployment) stageReq(req Request, stage string) {
	if !d.traceOn() || !tracedReq(req) {
		return
	}
	d.Obs.Tracer.Stage(req.trace(), stage)
}

// stageMsg advances the originating request's span chain from a leader hop.
func (d *Deployment) stageMsg(msg leaderMsg, stage string) {
	if !d.traceOn() || !tracedMsg(msg) {
		return
	}
	d.Obs.Tracer.Stage(msg.trace(), stage)
}

// msgTrace returns the trace id a leader-side child span should attach to,
// or 0 when the message is untraced. Unlike tracedMsg it includes
// OpTxnCommit: the commit message's Session/Seq are the originating
// multi()'s, so its store writes and watch deliveries attach to that tree.
func (d *Deployment) msgTrace(msg leaderMsg) int64 {
	if !d.traceOn() || msg.Seq <= 0 ||
		msg.Op == OpDeregister || msg.Op == OpReshardFence {
		return 0
	}
	return msg.trace()
}

// reqSpan opens a child span under the request's root (0 when untraced).
func (d *Deployment) reqSpan(req Request, name string, shard int) int64 {
	if !d.traceOn() || !tracedReq(req) {
		return 0
	}
	return d.Obs.Tracer.Start(req.trace(), name, req.Path, shard, "")
}

// tspan opens a child span under an explicit trace id (0 is the shared
// pipeline track: batched folds that serve many requests at once).
func (d *Deployment) tspan(trace int64, name, path string, shard int, region string) int64 {
	if !d.traceOn() {
		return 0
	}
	return d.Obs.Tracer.Start(trace, name, path, shard, region)
}

// spanEnd closes a child span opened by reqSpan/tspan (no-op for id 0).
func (d *Deployment) spanEnd(id int64) {
	if id == 0 || !d.traceOn() {
		return
	}
	d.Obs.Tracer.End(id)
}

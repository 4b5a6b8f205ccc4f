// Package faas implements the simulated function platform: deployable
// functions with memory/architecture configurations, a warm-sandbox pool
// with cold starts, the three trigger classes of Section 2.1 (free
// functions invoked directly, event functions invoked from queues or
// streams, and scheduled functions), retry policies, and GB-second
// billing.
package faas

import (
	"fmt"
	"math"
	"time"

	"faaskeeper/internal/cloud"
	"faaskeeper/internal/cloud/kv"
	"faaskeeper/internal/cloud/queue"
	"faaskeeper/internal/sim"
)

// Arch is the sandbox CPU architecture.
type Arch string

// Supported architectures.
const (
	X86 Arch = "x86_64"
	ARM Arch = "arm64"
)

// sandboxIdleTTL is how long an idle sandbox stays warm.
const sandboxIdleTTL = 10 * time.Minute

// Handler is the user code of a function. Returning an error triggers the
// platform retry policy for event invocations.
type Handler func(inv *Invocation) error

// Invocation carries one function execution's inputs. A queue trigger
// hands the same Invocation, and Messages in the same backing array, to its
// next delivery: a handler keeps neither past its return.
type Invocation struct {
	K        *sim.Kernel
	Ctx      cloud.Ctx // pre-scaled for the sandbox's memory/arch/vCPU
	Func     *Function
	Messages []queue.Message // queue/stream trigger batch
	Payload  []byte          // direct invocation payload
	Cold     bool
	Attempt  int // 1 for the first try
	// Bill, when set by the handler during execution, receives this
	// invocation's GB-s charge (run bills after the handler returns, so a
	// handler that decodes its batch can attribute the execution cost to
	// the requests it served). Defaults to the context's sink.
	Bill cloud.BillSink
}

// Config describes one deployed function.
type Config struct {
	Name     string
	MemoryMB int
	Arch     Arch
	VCPU     float64 // CPU allocation; 0 = provider default (1 vCPU)
	Retries  int     // extra attempts for failed event invocations
}

// Function is a deployed function with its sandbox pool and counters.
type Function struct {
	p       *Platform
	cfg     Config
	handler Handler
	costCat string // "faas.<name>", the meter category of every run
	// asyncProc names the process of every asynchronous invocation, and
	// spare holds the reaped ones for reuse (Async).
	asyncProc string
	spare     []*Async

	warmExpiry []sim.Time // idle sandboxes, each with its expiry time

	invocations int64
	coldStarts  int64
	errors      int64
	dropped     int64 // batches abandoned after exhausting retries
	billedSec   float64
}

// Platform hosts deployed functions in one region.
type Platform struct {
	env    *cloud.Env
	region cloud.Region
	fns    map[string]*Function
}

// NewPlatform creates a platform in the profile's home region.
func NewPlatform(env *cloud.Env) *Platform {
	return &Platform{env: env, region: env.Profile.Home, fns: map[string]*Function{}}
}

// Deploy registers a function and returns it.
func (p *Platform) Deploy(cfg Config, h Handler) *Function {
	if cfg.MemoryMB <= 0 {
		cfg.MemoryMB = 2048
	}
	if cfg.Arch == "" {
		cfg.Arch = X86
	}
	if _, dup := p.fns[cfg.Name]; dup {
		panic("faas: duplicate function " + cfg.Name)
	}
	f := &Function{p: p, cfg: cfg, handler: h, costCat: "faas." + cfg.Name, asyncProc: "invoke-async:" + cfg.Name}
	p.fns[cfg.Name] = f
	return f
}

// Function returns a deployed function by name.
func (p *Platform) Function(name string) *Function {
	f, ok := p.fns[name]
	if !ok {
		panic("faas: unknown function " + name)
	}
	return f
}

// Env returns the platform's cloud environment.
func (p *Platform) Env() *cloud.Env { return p.env }

// Config returns the function's configuration.
func (f *Function) Config() Config { return f.cfg }

// Invocations returns the number of completed executions.
func (f *Function) Invocations() int64 { return f.invocations }

// ColdStarts returns how many executions paid a cold start.
func (f *Function) ColdStarts() int64 { return f.coldStarts }

// Errors returns how many executions returned an error.
func (f *Function) Errors() int64 { return f.errors }

// Dropped returns how many event batches were abandoned after retries.
func (f *Function) Dropped() int64 { return f.dropped }

// BilledSeconds returns the accumulated billed duration.
func (f *Function) BilledSeconds() float64 { return f.billedSec }

// SandboxCtx derives the cloud context for this function's sandboxes:
// I/O bandwidth grows with the memory allocation (sub-linearly, as on
// Lambda), the CPU share grows mildly, ARM trades cheaper compute for
// slower object-store transfers, and a reduced vCPU allocation barely
// changes performance (Section 5.3.2).
func (f *Function) SandboxCtx() cloud.Ctx {
	mem := float64(f.cfg.MemoryMB)
	io := math.Sqrt(mem / 2048)
	io = math.Max(0.2, math.Min(io, 1.25))
	cpu := 0.8 + 0.2*math.Min(mem/2048, 1)
	obj := 1.0
	if f.cfg.Arch == ARM {
		cpu *= 1.08
		obj = 0.6
	}
	if f.cfg.VCPU > 0 {
		cpu *= 0.98 + 0.04*f.cfg.VCPU
	}
	return cloud.Ctx{Region: f.p.region, IOScale: io, CPUScale: cpu, ObjScale: obj}
}

// takeSandbox claims a warm sandbox if one is still alive; otherwise the
// invocation is cold.
func (f *Function) takeSandbox() (cold bool) {
	now := f.p.env.K.Now()
	for len(f.warmExpiry) > 0 {
		exp := f.warmExpiry[len(f.warmExpiry)-1]
		f.warmExpiry = f.warmExpiry[:len(f.warmExpiry)-1]
		if exp > now {
			return false
		}
	}
	return true
}

func (f *Function) releaseSandbox() {
	f.warmExpiry = append(f.warmExpiry, f.p.env.K.Now()+sandboxIdleTTL)
}

// run executes the handler once in a sandbox, paying start-up overhead and
// billing the duration. It must be called from a sim process.
func (f *Function) run(inv *Invocation) error {
	env := f.p.env
	cold := f.takeSandbox()
	inv.Cold = cold
	if cold {
		f.coldStarts++
		env.K.Sleep(env.Profile.ColdStart.Sample(env.K.Rand()))
	} else {
		env.K.Sleep(env.Profile.WarmOverhead.Sample(env.K.Rand()))
	}
	start := env.K.Now()
	err := f.handler(inv)
	dur := env.K.Now() - start
	if dur < sim.Ms(1) {
		dur = sim.Ms(1) // 1 ms billing floor
	}
	sec := dur.Seconds()
	f.billedSec += sec
	f.invocations++
	if err != nil {
		f.errors++
	}
	usd := env.Profile.Pricing.FaaSCost(f.cfg.MemoryMB, f.cfg.VCPU, sec, f.cfg.Arch == ARM)
	bctx := inv.Ctx
	if inv.Bill != nil {
		bctx.Bill = inv.Bill
	}
	env.Charge(bctx, f.costCat, usd, 1)
	f.releaseSandbox()
	return err
}

// Invoke synchronously executes a free function with an API-call overhead
// (Figure 7a "Direct") and returns the handler error. It must be called
// from a sim process; the caller blocks for the full round trip.
func (p *Platform) Invoke(ctx cloud.Ctx, name string, payload []byte) error {
	f := p.Function(name)
	prof := p.env.Profile
	p.env.K.Sleep(p.env.OpTime(ctx, prof.DirectInvoke, prof.DirectPerKB, len(payload)))
	sctx := f.SandboxCtx()
	sctx.Bill = ctx.Bill // the invocation works on behalf of the caller
	return f.run(&Invocation{K: p.env.K, Ctx: sctx, Func: f, Payload: payload, Attempt: 1})
}

// Async is one asynchronous invocation of a free function: InvokeAsync
// starts it and Wait reaps it. A function reuses the invocations it has
// reaped, each with its process body bound once, so a warm invocation that
// is reaped allocates nothing.
type Async struct {
	f       *Function
	ctx     cloud.Ctx
	payload []byte
	inv     Invocation
	done    sim.Future[error]
	body    func() // run, bound once
}

// run is the invocation's process: the API call, then the handler in a
// sandbox, on behalf of the caller's bill.
func (a *Async) run() {
	env, f := a.f.p.env, a.f
	env.K.Sleep(env.OpTime(a.ctx, env.Profile.DirectInvoke, env.Profile.DirectPerKB, len(a.payload)))
	sctx := f.SandboxCtx()
	sctx.Bill = a.ctx.Bill // the invocation works on behalf of the caller
	a.inv = Invocation{K: env.K, Ctx: sctx, Func: f, Payload: a.payload, Attempt: 1}
	a.done.Complete(f.run(&a.inv))
}

// Wait blocks until the invocation has returned and returns the handler's
// error. It hands the invocation back to its function for reuse: call it
// once, and do not touch the Async afterwards.
func (a *Async) Wait() error {
	err := a.done.Wait()
	a.ctx, a.payload, a.inv = cloud.Ctx{}, nil, Invocation{}
	a.done = sim.MakeFuture[error](a.f.p.env.K)
	a.f.spare = append(a.f.spare, a)
	return err
}

// InvokeAsync fires a free function without waiting for completion and
// returns the invocation, whose Wait gives the handler's error. Used for the
// watch function fan-out (Section 4.1).
func (p *Platform) InvokeAsync(ctx cloud.Ctx, name string, payload []byte) *Async {
	f := p.Function(name)
	var a *Async
	if n := len(f.spare); n > 0 {
		a, f.spare[n-1] = f.spare[n-1], nil
		f.spare = f.spare[:n-1]
	} else {
		a = &Async{f: f, done: sim.MakeFuture[error](p.env.K)}
		a.body = a.run
	}
	a.ctx, a.payload = ctx, payload
	p.env.K.Go(f.asyncProc, a.body)
	return a
}

// AddQueueTrigger starts poller processes that deliver message batches
// from q to the named function. concurrency is the number of parallel
// pollers; FaaSKeeper uses 1 on its FIFO queues so that a single function
// instance processes a session's requests in order (Section 3.1). Failed
// batches are retried up to the function's retry budget, then dropped.
//
// Each poller receives into one batch buffer and runs every delivery and
// retry through one Invocation, both reset per delivery: the platform's
// plumbing, not sandbox state.
func (p *Platform) AddQueueTrigger(q *queue.Queue, name string, concurrency int) {
	if concurrency <= 0 {
		concurrency = 1
	}
	f := p.Function(name)
	for i := 0; i < concurrency; i++ {
		p.env.K.Go(fmt.Sprintf("trigger:%s:%d", name, i), func() {
			var batch []queue.Message
			inv := new(Invocation)
			for {
				var ok bool
				if batch, ok = q.ReceiveInto(batch[:0], 0); !ok {
					return
				}
				p.deliver(f, inv, batch)
				clear(batch) // the buffer pins no message body
			}
		})
	}
}

// AddStreamTrigger polls a kv change stream (DynamoDB Streams) and invokes
// the named function with record batches, preserving order with a single
// poller per shard.
func (p *Platform) AddStreamTrigger(s *kv.Stream, name string) {
	f := p.Function(name)
	deliver := p.env.Profile.QueueDeliver[cloud.QueueStream]
	if deliver == nil {
		deliver = p.env.Profile.QueueDeliver[p.env.Profile.OrderedQueueKind()]
	}
	p.env.K.Go("stream-trigger:"+name, func() {
		inv := new(Invocation)
		for {
			recs := s.Records.PopBatch(nil, 100, 10*sim.Ms(1))
			if len(recs) == 0 {
				return
			}
			p.env.K.Sleep(deliver.Sample(p.env.K.Rand()))
			msgs := make([]queue.Message, len(recs))
			for i, r := range recs {
				body, _ := marshalStreamRecord(r)
				msgs[i] = queue.Message{SeqNo: r.SeqNo, GroupID: r.Key, Body: body, SentAt: p.env.K.Now()}
			}
			p.deliver(f, inv, msgs)
		}
	})
}

// AddSchedule invokes the named function every period, mirroring
// EventBridge scheduled rules (the heartbeat function's trigger).
func (p *Platform) AddSchedule(name string, period sim.Time) {
	f := p.Function(name)
	p.env.K.Go("schedule:"+name, func() {
		for {
			p.env.K.Sleep(period)
			f.run(&Invocation{K: p.env.K, Ctx: f.SandboxCtx(), Func: f, Attempt: 1})
		}
	})
}

// deliver runs batch through f, with its retries and an injected
// redelivery, each run on inv reset to a fresh invocation of the batch.
func (p *Platform) deliver(f *Function, inv *Invocation, batch []queue.Message) {
	for attempt := 1; ; attempt++ {
		*inv = Invocation{K: p.env.K, Ctx: f.SandboxCtx(), Func: f, Messages: batch, Attempt: attempt}
		err := f.run(inv)
		if err == nil {
			break
		}
		if attempt > f.cfg.Retries {
			f.dropped++
			return
		}
		// Linear backoff between retries, as SQS redrive behaves.
		p.env.K.Sleep(sim.Time(attempt) * 50 * sim.Ms(1))
	}
	// At-least-once: the queue may deliver an acknowledged batch again.
	// Handlers must already tolerate it (warm-state dedup, head-vs-txid
	// checks), so the duplicate's own error — including a further injected
	// crash — is not retried.
	if h := p.env.K.Fault(); h != nil && h.Redeliver(f.cfg.Name) {
		*inv = Invocation{K: p.env.K, Ctx: f.SandboxCtx(), Func: f, Messages: batch, Attempt: 2}
		_ = f.run(inv)
	}
}

func marshalStreamRecord(r kv.StreamRecord) ([]byte, error) {
	// Stream records only need the key for the experiments that use them;
	// the body is a placeholder of realistic size.
	return []byte(r.Key), nil
}

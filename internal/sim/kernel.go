// Package sim implements a deterministic discrete-event simulation kernel.
//
// All concurrency in the simulated cloud (functions, storage services,
// queues, clients, ZooKeeper servers) is expressed as sim processes.
// Exactly one process is runnable at any instant: whoever holds the baton.
// A process runs until it blocks on a kernel primitive (Sleep, Future.Wait,
// Queue.Pop, ...) or returns; it then runs the scheduler itself (dispatch:
// pop the next live event in (at, seq) order, advance virtual time) and
// hands the baton straight to the process that event wakes. When that is
// the blocking process itself — almost every Sleep of a closed loop — it
// just keeps running, with no channel operation at all. Only when nothing
// is runnable at or before RunUntil's limit does the baton go back to the
// goroutine inside RunUntil. Runs are fully deterministic for a given
// seed, there are no data races by construction, and virtual time is free:
// simulating 24 hours costs only the events that occur within them.
//
// A hand-off is one send on the target's resume channel (or on
// Kernel.parked for RunUntil), then one receive on the sender's own. Both
// channels hold one token, because a hand-off must never block the sender:
// the target may not have reached its receive yet (a goroutine that was
// just spawned, or a parent still finishing its own send to the child that
// now exits). A sender blocked there is readied later through the Go
// scheduler's runnext slot of a goroutine that keeps inheriting the time
// slice, and with GOMAXPROCS=1 it then waits for sysmon's 10 ms preemption
// — exiting processes pile up far faster than they drain. Exactly one
// baton exists, so a one-slot buffer is never full.
//
// Shutdown dispatches nothing. It wakes each live process in process-id
// order with killed set; the process unwinds by panic, and a deferred
// function that tries to block panics again at park instead of waiting for
// a wake-up nobody will deliver. No simulated code past a blocking call
// runs during Shutdown.
//
// A process that returns does not end its goroutine: the goroutine joins
// the kernel's idle list and runs the body of the next Go, so a simulation
// that spawns a process per request allocates neither a Process nor a
// goroutine in steady state. The recycled Process gets the next id and its
// start event the next seq, exactly as a fresh one would, and its parkSeq
// keeps counting up across incarnations (exit bumps it once more), so a
// wake-up addressed to an earlier incarnation — a timeout that outlived its
// wait, a waiter left in a queue — carries a seq the process will never
// park with again and is dropped as stale. The idle list lives only while
// the kernel runs: RunUntil unwinds it before it returns, so a stopped
// kernel holds one goroutine per live process and no more.
package sim

import (
	"fmt"
	"math/rand"
	"slices"
	"time"
)

// Time is an instant in virtual time, measured as an offset from the start
// of the simulation.
type Time = time.Duration

// Kernel is the discrete-event scheduler. Create one with NewKernel, spawn
// processes with Go or Spawn, then call Run (or RunFor) to execute events.
type Kernel struct {
	now     Time
	limit   Time // RunUntil's bound: dispatch runs no event later than this
	events  eventHeap
	seq     int64
	current *Process
	parked  chan struct{} // the baton's way back to RunUntil / Shutdown
	rng     *rand.Rand
	nextID  int64
	live    map[int64]*Process
	idle    []*Process // returned processes whose goroutines wait for the next Go
	fault   FaultHook
}

// Process is a simulated thread of control. Processes are created by
// Kernel.Go and scheduled cooperatively by the kernel. A Process value is
// recycled once its function returns (see the package comment): hold on to
// one only while it runs.
type Process struct {
	id   int64
	name string
	k    *Kernel
	fn   func()     // this incarnation's body
	wg   *WaitGroup // counts this incarnation (WaitGroup.Go); nil when none does

	resume  chan struct{}
	parkSeq int64 // bumped on every resume and at exit; wake-ups carrying an older seq are stale
	done    bool
	killed  bool
}

// killedPanic is the value panicked through a process stack when the kernel
// shuts down while the process is parked.
type killedPanic struct{}

type event struct {
	at      Time
	seq     int64 // insertion order; total tiebreaker for determinism
	proc    *Process
	wakeSeq int64
}

// eventHeap is a binary min-heap of events ordered by (at, seq). It is
// typed rather than a container/heap.Interface so push and pop move event
// values directly instead of boxing each one into an `any` (one allocation
// per scheduled wake-up). (at, seq) is a total order — seq is unique — so
// pop order is independent of the heap's internal layout.
type eventHeap []event

func (e event) before(o event) bool {
	if e.at != o.at {
		return e.at < o.at
	}
	return e.seq < o.seq
}

func (h *eventHeap) push(e event) {
	s := append(*h, e)
	i := len(s) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !e.before(s[parent]) {
			break
		}
		s[i] = s[parent]
		i = parent
	}
	s[i] = e
	*h = s
}

// pop removes and returns the earliest event. The vacated tail slot is
// zeroed so the backing array does not pin a finished *Process.
func (h *eventHeap) pop() event {
	s := *h
	top := s[0]
	n := len(s) - 1
	last := s[n]
	s[n] = event{}
	s = s[:n]
	*h = s
	if n == 0 {
		return top
	}
	i := 0
	for {
		child := 2*i + 1
		if child >= n {
			break
		}
		if r := child + 1; r < n && s[r].before(s[child]) {
			child = r
		}
		if !s[child].before(last) {
			break
		}
		s[i] = s[child]
		i = child
	}
	s[i] = last
	return top
}

func (h eventHeap) peek() event { return h[0] }

// NewKernel returns a kernel whose random source is seeded with seed.
func NewKernel(seed int64) *Kernel {
	return &Kernel{
		parked: make(chan struct{}, 1),
		rng:    rand.New(rand.NewSource(seed)),
		live:   make(map[int64]*Process),
	}
}

// Clock is the read-only view of a virtual clock: the hook telemetry
// spans (and any other passive observer) use to timestamp events without
// holding a reference to the whole kernel. *Kernel implements it.
type Clock interface {
	Now() Time
}

// Now returns the current virtual time.
func (k *Kernel) Now() Time { return k.now }

// Rand returns the kernel's deterministic random source. It must only be
// used from inside processes (or before Run), never concurrently.
func (k *Kernel) Rand() *rand.Rand { return k.rng }

// Current returns the currently running process. It is only meaningful when
// called from inside a process.
func (k *Kernel) Current() *Process { return k.current }

// Name returns the process name given at spawn time.
func (p *Process) Name() string { return p.name }

// ID returns the unique process id.
func (p *Process) ID() int64 { return p.id }

// Done reports whether the process function has returned.
func (p *Process) Done() bool { return p.done }

func (k *Kernel) scheduleWake(at Time, p *Process, wakeSeq int64) {
	if at < k.now {
		at = k.now
	}
	k.seq++
	k.events.push(event{at: at, seq: k.seq, proc: p, wakeSeq: wakeSeq})
}

// dispatch is the scheduler: it pops events in (at, seq) order, drops stale
// wake-ups, advances virtual time and returns the process to run next, with
// k.current already pointing at it. It returns nil when nothing is runnable
// at or before k.limit. Whoever holds the baton calls it — RunUntil, a
// process that blocks, a process that exits.
func (k *Kernel) dispatch() *Process {
	for len(k.events) > 0 && k.events.peek().at <= k.limit {
		ev := k.events.pop()
		p := ev.proc
		if p.done || ev.wakeSeq != p.parkSeq {
			continue // stale wake-up (timeout raced with completion, etc.)
		}
		if ev.at > k.now {
			k.now = ev.at
		}
		p.parkSeq++
		k.current = p
		return p
	}
	k.current = nil
	return nil
}

// handOff passes the baton to next, or back to RunUntil when next is nil.
// Neither send can block: see the package comment.
func (k *Kernel) handOff(next *Process) {
	if next == nil {
		k.parked <- struct{}{}
		return
	}
	next.resume <- struct{}{}
}

// park blocks the current process until some event wakes it. It must be
// called with at least one wake-up already scheduled (or registered with a
// future/queue), otherwise the process sleeps forever.
func (k *Kernel) park() {
	p := k.current
	if p.killed {
		// A deferred function of a process Shutdown is unwinding tried to
		// block: keep unwinding.
		panic(killedPanic{})
	}
	next := k.dispatch()
	if next == p {
		return // the next event is our own wake-up
	}
	k.handOff(next)
	<-p.resume
	if p.killed {
		panic(killedPanic{})
	}
}

// Go spawns a new process executing fn, scheduled to start at the current
// virtual time. It may be called before Run or from inside a running
// process. The process reuses an idle goroutine when one is waiting.
func (k *Kernel) Go(name string, fn func()) *Process {
	k.nextID++
	var p *Process
	if n := len(k.idle); n > 0 {
		p = k.idle[n-1]
		k.idle[n-1] = nil
		k.idle = k.idle[:n-1]
	} else {
		p = &Process{k: k, resume: make(chan struct{}, 1)}
		go k.loop(p)
	}
	p.id, p.name, p.fn, p.wg, p.done = k.nextID, name, fn, nil, false
	k.live[p.id] = p
	k.scheduleWake(k.now, p, p.parkSeq)
	return p
}

// loop is a process goroutine: it runs one incarnation per start wake-up
// and waits on the idle list between them, until Shutdown or RunUntil
// unwinds it.
func (k *Kernel) loop(p *Process) {
	for {
		<-p.resume
		k.run(p)
		if p.killed {
			k.parked <- struct{}{} // back to Shutdown / releaseIdle
			return
		}
		k.idle = append(k.idle, p)
		k.handOff(k.dispatch())
	}
}

// run executes one incarnation of p; its deferred exit retires it. The
// group counting it learns that it finished only when its body returned: a
// body Shutdown unwinds never reaches Done.
func (k *Kernel) run(p *Process) {
	defer k.exit(p)
	if !p.killed {
		p.fn()
		if p.wg != nil {
			p.wg.Done()
		}
	}
}

// exit retires p's incarnation. It must be the deferred function itself for
// recover to see a panic.
func (k *Kernel) exit(p *Process) {
	p.done = true
	p.fn, p.wg = nil, nil
	p.parkSeq++ // whatever still targets this incarnation is stale from here
	delete(k.live, p.id)
	if r := recover(); r != nil {
		if _, ok := r.(killedPanic); !ok {
			panic(r) // real bug: crash loudly
		}
	}
}

// releaseIdle unwinds the goroutines waiting on the idle list.
func (k *Kernel) releaseIdle() {
	for _, p := range k.idle {
		p.killed = true
		p.resume <- struct{}{}
		<-k.parked
	}
	clear(k.idle)
	k.idle = k.idle[:0]
}

// Sleep suspends the current process for d of virtual time.
func (k *Kernel) Sleep(d time.Duration) {
	if d < 0 {
		d = 0
	}
	p := k.current
	k.scheduleWake(k.now+d, p, p.parkSeq)
	k.park()
}

// Yield reschedules the current process at the current time, letting any
// other process scheduled for the same instant run first.
func (k *Kernel) Yield() { k.Sleep(0) }

// Run executes events until none remain. It returns the final virtual
// time. Processes still parked when Run returns (for example servers
// waiting for requests) are left suspended; call Shutdown to release their
// goroutines.
func (k *Kernel) Run() Time {
	return k.RunUntil(1<<62 - 1)
}

// RunUntil executes events with timestamps <= limit and returns the final
// virtual time (which may exceed limit only if it already did on entry).
// It must not be called from inside a process.
func (k *Kernel) RunUntil(limit Time) Time {
	k.limit = limit
	if next := k.dispatch(); next != nil {
		k.handOff(next)
		<-k.parked
	}
	k.releaseIdle()
	if len(k.events) > 0 && k.now < limit {
		k.now = limit // later events are pending: the window was run to its end
	}
	return k.now
}

// RunFor runs the simulation for d of virtual time from now.
func (k *Kernel) RunFor(d time.Duration) Time { return k.RunUntil(k.now + d) }

// Live returns the number of processes that have been spawned and have not
// yet finished.
func (k *Kernel) Live() int { return len(k.live) }

// Shutdown terminates all live processes by unwinding their stacks, so the
// underlying goroutines exit. The kernel must not be used afterwards. It is
// safe to call after Run returns; it must not be called from inside a
// process.
//
// Processes are unwound in process-id order, so the side effects of their
// deferred functions happen in the same order on every run. Wake-ups those
// functions schedule are never dispatched; the loop repeats only to catch a
// process spawned by one of them.
func (k *Kernel) Shutdown() {
	for len(k.live) > 0 {
		ids := make([]int64, 0, len(k.live))
		for id := range k.live {
			ids = append(ids, id)
		}
		slices.Sort(ids)
		for _, id := range ids {
			p := k.live[id]
			p.killed = true
			k.current = p
			p.resume <- struct{}{}
			<-k.parked
		}
	}
	k.events = nil
	k.current = nil
}

// waiter records a parked process together with the park generation the
// wake-up must match; stale generations are dropped by the scheduler.
type waiter struct {
	p   *Process
	seq int64
}

func (k *Kernel) waiterFor(p *Process) waiter { return waiter{p: p, seq: p.parkSeq} }

func (k *Kernel) wake(w waiter) { k.scheduleWake(k.now, w.p, w.seq) }

func (k *Kernel) wakeAt(at Time, w waiter) { k.scheduleWake(at, w.p, w.seq) }

// wakeFirst wakes the first waiter of ws still parked where it registered,
// dropping the stale ones ahead of it (a popper that timed out, a process
// that has exited since).
func (k *Kernel) wakeFirst(ws *fifo[waiter]) {
	for ws.len() > 0 {
		if w := ws.pop(); w.seq == w.p.parkSeq && !w.p.done {
			k.wake(w)
			return
		}
	}
}

// String implements fmt.Stringer for debugging.
func (p *Process) String() string { return fmt.Sprintf("proc(%d:%s)", p.id, p.name) }

// Package sim implements a deterministic discrete-event simulation kernel.
//
// All concurrency in the simulated cloud (functions, storage services,
// queues, clients, ZooKeeper servers) is expressed as sim processes.
// Exactly one process is runnable at any instant: the kernel hands control
// to a process, the process runs until it blocks on a kernel primitive
// (Sleep, Future.Wait, Queue.Pop, ...) and control returns to the kernel,
// which advances virtual time to the next scheduled event. Runs are fully
// deterministic for a given seed, there are no data races by construction,
// and virtual time is free: simulating 24 hours costs only the events that
// occur within them.
package sim

import (
	"fmt"
	"math/rand"
	"time"
)

// Time is an instant in virtual time, measured as an offset from the start
// of the simulation.
type Time = time.Duration

// Kernel is the discrete-event scheduler. Create one with NewKernel, spawn
// processes with Go or Spawn, then call Run (or RunFor) to execute events.
type Kernel struct {
	now     Time
	events  eventHeap
	seq     int64
	current *Process
	parked  chan struct{}
	rng     *rand.Rand
	nextID  int64
	live    map[int64]*Process
	stopped bool
	fault   FaultHook
}

// Process is a simulated thread of control. Processes are created by
// Kernel.Go and scheduled cooperatively by the kernel.
type Process struct {
	id   int64
	name string
	k    *Kernel

	resume  chan struct{}
	parkSeq int64 // bumped on every resume; wake-ups carrying an older seq are stale
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
		parked: make(chan struct{}),
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

// park blocks the current process until some event wakes it. It must be
// called with at least one wake-up already scheduled (or registered with a
// future/queue), otherwise the process sleeps forever.
func (k *Kernel) park() {
	p := k.current
	k.parked <- struct{}{}
	<-p.resume
	if p.killed {
		panic(killedPanic{})
	}
}

// Go spawns a new process executing fn, scheduled to start at the current
// virtual time. It may be called before Run or from inside a running
// process.
func (k *Kernel) Go(name string, fn func()) *Process {
	k.nextID++
	p := &Process{id: k.nextID, name: name, k: k, resume: make(chan struct{})}
	k.live[p.id] = p
	go func() {
		<-p.resume
		if p.killed {
			p.done = true
			delete(k.live, p.id)
			k.parked <- struct{}{}
			return
		}
		defer func() {
			p.done = true
			delete(k.live, p.id)
			if r := recover(); r != nil {
				if _, ok := r.(killedPanic); ok {
					k.parked <- struct{}{}
					return
				}
				panic(r) // real bug: crash loudly
			}
			k.parked <- struct{}{}
		}()
		fn()
	}()
	k.scheduleWake(k.now, p, 0)
	return p
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

// Run executes events until none remain or the kernel is stopped. It
// returns the final virtual time. Processes still parked when Run returns
// (for example servers waiting for requests) are left suspended; call
// Shutdown to release their goroutines.
func (k *Kernel) Run() Time {
	return k.RunUntil(1<<62 - 1)
}

// RunUntil executes events with timestamps <= limit and returns the final
// virtual time (which may exceed limit only if it already did on entry).
func (k *Kernel) RunUntil(limit Time) Time {
	for len(k.events) > 0 && !k.stopped {
		if k.events.peek().at > limit {
			k.now = limit
			break
		}
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
		p.resume <- struct{}{}
		<-k.parked
	}
	k.current = nil
	return k.now
}

// RunFor runs the simulation for d of virtual time from now.
func (k *Kernel) RunFor(d time.Duration) Time { return k.RunUntil(k.now + d) }

// Stop makes Run return after the current event completes.
func (k *Kernel) Stop() { k.stopped = true }

// Live returns the number of processes that have been spawned and have not
// yet finished.
func (k *Kernel) Live() int { return len(k.live) }

// Shutdown terminates all live processes by unwinding their stacks, so the
// underlying goroutines exit. The kernel must not be used afterwards. It is
// safe to call after Run returns; it must not be called from inside a
// process.
func (k *Kernel) Shutdown() {
	// Drain any still-pending events so stale resumes do not interfere.
	k.events = nil
	for _, p := range k.live {
		if p.done {
			continue
		}
		p.killed = true
		k.current = p
		p.resume <- struct{}{}
		<-k.parked
	}
	k.live = map[int64]*Process{}
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

// String implements fmt.Stringer for debugging.
func (p *Process) String() string { return fmt.Sprintf("proc(%d:%s)", p.id, p.name) }

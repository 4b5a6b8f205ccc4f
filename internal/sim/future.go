package sim

// waiters is a wake-up list that holds its first waiter inline: a future
// or a wait group almost always has exactly one process waiting on it, and
// that one costs no allocation.
type waiters struct {
	first waiter // zero when nobody waits
	more  []waiter
}

func (ws *waiters) add(w waiter) {
	if ws.first.p == nil {
		ws.first = w
		return
	}
	ws.more = append(ws.more, w)
}

// wakeAll wakes every waiter in registration order and empties the list.
func (ws *waiters) wakeAll(k *Kernel) {
	if ws.first.p != nil {
		k.wake(ws.first)
	}
	for _, w := range ws.more {
		k.wake(w)
	}
	*ws = waiters{}
}

// Future is a one-shot value that processes can wait on. It is the
// simulation counterpart of a channel receive with exactly one send.
type Future[T any] struct {
	k       *Kernel
	done    bool
	val     T
	waiters waiters
}

// NewFuture creates an incomplete future bound to kernel k.
func NewFuture[T any](k *Kernel) *Future[T] {
	return &Future[T]{k: k}
}

// Done reports whether the future has been completed.
func (f *Future[T]) Done() bool { return f.done }

// Value returns the completed value; it is only meaningful once Done
// reports true.
func (f *Future[T]) Value() T { return f.val }

// Complete resolves the future and wakes all waiters. Completing an
// already-complete future panics: in the protocols built on top of futures
// a double completion is always a bug.
func (f *Future[T]) Complete(v T) {
	if f.done {
		panic("sim: future completed twice")
	}
	f.done = true
	f.val = v
	f.waiters.wakeAll(f.k)
}

// TryComplete resolves the future if it is not already resolved and reports
// whether this call won.
func (f *Future[T]) TryComplete(v T) bool {
	if f.done {
		return false
	}
	f.Complete(v)
	return true
}

// Wait blocks the current process until the future completes and returns
// its value. If the future is already complete it returns immediately
// without yielding.
func (f *Future[T]) Wait() T {
	if !f.done {
		f.waiters.add(f.k.waiterFor(f.k.current))
		f.k.park()
	}
	return f.val
}

// WaitTimeout waits for at most d of virtual time. It returns the value and
// true if the future completed, or the zero value and false on timeout.
func (f *Future[T]) WaitTimeout(d Time) (T, bool) {
	if !f.done {
		w := f.k.waiterFor(f.k.current)
		f.waiters.add(w)
		f.k.wakeAt(f.k.now+d, w)
		f.k.park()
	}
	if !f.done {
		var zero T
		return zero, false
	}
	return f.val, true
}

// WaitGroup waits for a collection of processes or operations to finish.
type WaitGroup struct {
	k       *Kernel
	count   int
	waiters waiters
}

// NewWaitGroup creates a WaitGroup bound to kernel k.
func NewWaitGroup(k *Kernel) *WaitGroup { return &WaitGroup{k: k} }

// Add increments the outstanding-operation count by n.
func (wg *WaitGroup) Add(n int) { wg.count += n }

// Done decrements the count, waking waiters when it reaches zero.
func (wg *WaitGroup) Done() {
	wg.count--
	if wg.count < 0 {
		panic("sim: WaitGroup count below zero")
	}
	if wg.count == 0 {
		wg.waiters.wakeAll(wg.k)
	}
}

// Go counts fn on the group and spawns it as a process named name; the
// kernel calls Done when fn returns. A caller that keeps fn bound from one
// round to the next spawns without allocating.
func (wg *WaitGroup) Go(name string, fn func()) {
	wg.count++
	wg.k.Go(name, fn).wg = wg
}

// Wait blocks until the count is zero.
func (wg *WaitGroup) Wait() {
	for wg.count > 0 {
		wg.waiters.add(wg.k.waiterFor(wg.k.current))
		wg.k.park()
	}
}

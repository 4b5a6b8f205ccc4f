package sim

// Queue is an unbounded FIFO channel between simulation processes. Pushes
// never block; Pops block while the queue is empty.
type Queue[T any] struct {
	k       *Kernel
	items   FIFO[T]
	waiters FIFO[waiter]
	closed  bool
}

// FIFO is a slice-backed first-in first-out list that keeps its backing
// array; the zero value is empty. A pop advances the head index and zeroes
// the slot it leaves, so the array pins nothing that was popped; a push
// into a full array whose dead head is at least half of it slides the live
// items to the front instead of growing. A FIFO in steady state — a push
// for every pop, as every mailbox of the simulated cloud is — therefore
// stops allocating once its array has reached twice its peak length.
type FIFO[T any] struct {
	buf  []T
	head int
}

// Len returns the number of items.
func (f *FIFO[T]) Len() int { return len(f.buf) - f.head }

// At returns the i-th item from the head, 0 <= i < Len.
func (f *FIFO[T]) At(i int) T { return f.buf[f.head+i] }

// Push appends v at the tail.
func (f *FIFO[T]) Push(v T) {
	if len(f.buf) == cap(f.buf) && f.head > 0 && 2*f.head >= len(f.buf) {
		n := copy(f.buf, f.buf[f.head:])
		clear(f.buf[n:])
		f.buf, f.head = f.buf[:n], 0
	}
	f.buf = append(f.buf, v)
}

// Pop removes and returns the head item; the FIFO must not be empty.
func (f *FIFO[T]) Pop() T {
	v := f.buf[f.head]
	var zero T
	f.buf[f.head] = zero
	f.head++
	if f.head == len(f.buf) {
		f.buf, f.head = f.buf[:0], 0
	}
	return v
}

// NewQueue creates an empty queue bound to kernel k.
func NewQueue[T any](k *Kernel) *Queue[T] { return &Queue[T]{k: k} }

// Len returns the number of buffered items.
func (q *Queue[T]) Len() int { return q.items.Len() }

// Push appends v and wakes one blocked popper, if any.
func (q *Queue[T]) Push(v T) {
	if q.closed {
		panic("sim: push on closed queue")
	}
	q.items.Push(v)
	q.wakeOne()
}

// Close marks the queue closed: blocked and future Pops return ok=false
// once the buffer drains.
func (q *Queue[T]) Close() {
	q.closed = true
	for q.waiters.Len() > 0 {
		q.k.wake(q.waiters.Pop())
	}
}

func (q *Queue[T]) wakeOne() { q.k.wakeFirst(&q.waiters) }

// Pop removes and returns the head item, blocking while the queue is empty.
// It returns ok=false only if the queue is closed and drained.
func (q *Queue[T]) Pop() (T, bool) {
	for q.items.Len() == 0 {
		if q.closed {
			var zero T
			return zero, false
		}
		q.waiters.Push(q.k.waiterFor(q.k.current))
		q.k.park()
	}
	v := q.items.Pop()
	// If more items remain, keep the wake-up chain going for other poppers.
	if q.items.Len() > 0 {
		q.wakeOne()
	}
	return v, true
}

// TryPop removes the head item without blocking.
func (q *Queue[T]) TryPop() (T, bool) {
	if q.items.Len() == 0 {
		var zero T
		return zero, false
	}
	return q.items.Pop(), true
}

// PopTimeout waits at most d for an item. ok is false on timeout or close.
func (q *Queue[T]) PopTimeout(d Time) (T, bool) {
	deadline := q.k.now + d
	for q.items.Len() == 0 {
		if q.closed || q.k.now >= deadline {
			var zero T
			return zero, false
		}
		w := q.k.waiterFor(q.k.current)
		q.waiters.Push(w)
		q.k.wakeAt(deadline, w)
		q.k.park()
	}
	v := q.items.Pop()
	if q.items.Len() > 0 {
		q.wakeOne()
	}
	return v, true
}

// PopBatch pops up to max items and appends them to buf: it blocks for the
// first item, then keeps collecting whatever is already buffered (and
// whatever arrives within window, if window > 0) until max items are
// gathered. This mirrors how cloud queue pollers assemble invocation
// batches; a poller that hands in its previous batch's buf[:0] allocates
// none once the buffer has grown. The result is buf unchanged only when the
// queue is closed and drained.
func (q *Queue[T]) PopBatch(buf []T, max int, window Time) []T {
	first, ok := q.Pop()
	if !ok {
		return buf
	}
	batch := append(buf, first)
	deadline := q.k.now + window
	for len(batch)-len(buf) < max {
		if q.items.Len() > 0 {
			batch = append(batch, q.items.Pop())
			continue
		}
		if window <= 0 || q.k.now >= deadline {
			break
		}
		v, ok := q.PopTimeout(deadline - q.k.now)
		if !ok {
			break
		}
		batch = append(batch, v)
	}
	return batch
}

package sim

// Queue is an unbounded FIFO channel between simulation processes. Pushes
// never block; Pops block while the queue is empty.
type Queue[T any] struct {
	k       *Kernel
	items   fifo[T]
	waiters fifo[waiter]
	closed  bool
}

// fifo is a slice-backed FIFO that keeps its backing array. A pop advances
// the head index and zeroes the slot it leaves, so the array pins nothing
// that was popped; a push into a full array whose dead head is at least
// half of it slides the live items to the front instead of growing. A
// queue in steady state — a push for every pop, as every mailbox of the
// simulated cloud is — therefore stops allocating once its array has
// reached twice its peak length.
type fifo[T any] struct {
	buf  []T
	head int
}

func (f *fifo[T]) len() int { return len(f.buf) - f.head }

func (f *fifo[T]) push(v T) {
	if len(f.buf) == cap(f.buf) && f.head > 0 && 2*f.head >= len(f.buf) {
		n := copy(f.buf, f.buf[f.head:])
		clear(f.buf[n:])
		f.buf, f.head = f.buf[:n], 0
	}
	f.buf = append(f.buf, v)
}

// pop removes and returns the head item; the fifo must not be empty.
func (f *fifo[T]) pop() T {
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
func (q *Queue[T]) Len() int { return q.items.len() }

// Push appends v and wakes one blocked popper, if any.
func (q *Queue[T]) Push(v T) {
	if q.closed {
		panic("sim: push on closed queue")
	}
	q.items.push(v)
	q.wakeOne()
}

// Close marks the queue closed: blocked and future Pops return ok=false
// once the buffer drains.
func (q *Queue[T]) Close() {
	q.closed = true
	for q.waiters.len() > 0 {
		q.k.wake(q.waiters.pop())
	}
}

func (q *Queue[T]) wakeOne() { q.k.wakeFirst(&q.waiters) }

// Pop removes and returns the head item, blocking while the queue is empty.
// It returns ok=false only if the queue is closed and drained.
func (q *Queue[T]) Pop() (T, bool) {
	for q.items.len() == 0 {
		if q.closed {
			var zero T
			return zero, false
		}
		q.waiters.push(q.k.waiterFor(q.k.current))
		q.k.park()
	}
	v := q.items.pop()
	// If more items remain, keep the wake-up chain going for other poppers.
	if q.items.len() > 0 {
		q.wakeOne()
	}
	return v, true
}

// TryPop removes the head item without blocking.
func (q *Queue[T]) TryPop() (T, bool) {
	if q.items.len() == 0 {
		var zero T
		return zero, false
	}
	return q.items.pop(), true
}

// PopTimeout waits at most d for an item. ok is false on timeout or close.
func (q *Queue[T]) PopTimeout(d Time) (T, bool) {
	deadline := q.k.now + d
	for q.items.len() == 0 {
		if q.closed || q.k.now >= deadline {
			var zero T
			return zero, false
		}
		w := q.k.waiterFor(q.k.current)
		q.waiters.push(w)
		q.k.wakeAt(deadline, w)
		q.k.park()
	}
	v := q.items.pop()
	if q.items.len() > 0 {
		q.wakeOne()
	}
	return v, true
}

// PopBatch pops up to max items: it blocks for the first item, then keeps
// collecting whatever is already buffered (and whatever arrives within
// window, if window > 0) until max items are gathered. This mirrors how
// cloud queue pollers assemble invocation batches.
func (q *Queue[T]) PopBatch(max int, window Time) []T {
	first, ok := q.Pop()
	if !ok {
		return nil
	}
	batch := []T{first}
	deadline := q.k.now + window
	for len(batch) < max {
		if q.items.len() > 0 {
			batch = append(batch, q.items.pop())
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

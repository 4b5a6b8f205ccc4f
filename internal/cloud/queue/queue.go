// Package queue implements the simulated cloud queues of Section 5.2.2:
// SQS FIFO (ordered message groups, batch <= 10, monotonically increasing
// sequence numbers), SQS standard (unordered, bursty batching), DynamoDB
// Streams shards, and GCP Pub/Sub with and without ordering keys.
//
// A queue satisfies FaaSKeeper's five requirements on the processing queue
// (Section 3.1): it invokes functions on messages (via faas triggers that
// poll Receive), upholds FIFO order per group, supports limiting consumer
// concurrency, batches items, and assigns monotonically increasing
// sequence numbers that serve as the transaction id.
package queue

import (
	"errors"
	"time"

	"faaskeeper/internal/cloud"
	"faaskeeper/internal/sim"
)

// ErrTooLarge is returned for messages above the provider's size limit.
var ErrTooLarge = errors.New("queue: message exceeds size limit")

// Message is one queued message.
type Message struct {
	SeqNo   int64  // monotonically increasing per queue: the txid source
	GroupID string // FIFO message group (one per client session)
	Body    []byte
	SentAt  sim.Time
}

// Queue is one simulated queue instance.
type Queue struct {
	env  *cloud.Env
	name string
	kind cloud.QueueKind

	seqNo       int64
	buf         *sim.Queue[Message]
	closed      bool
	groupFreeAt sim.Time
}

// New creates a queue of the given kind.
func New(env *cloud.Env, name string, kind cloud.QueueKind) *Queue {
	if _, ok := env.Profile.QueueDeliver[kind]; !ok {
		panic("queue: kind " + string(kind) + " not available in profile " + env.Profile.Name)
	}
	return &Queue{env: env, name: name, kind: kind, buf: sim.NewQueue[Message](env.K)}
}

// Name returns the queue name.
func (q *Queue) Name() string { return q.name }

// Kind returns the queue technology.
func (q *Queue) Kind() cloud.QueueKind { return q.kind }

// Ordered reports whether the queue preserves per-group FIFO order.
func (q *Queue) Ordered() bool {
	return q.kind == cloud.QueueFIFO || q.kind == cloud.QueueOrdered || q.kind == cloud.QueueStream
}

// MaxBatch returns the largest batch a trigger may receive.
func (q *Queue) MaxBatch() int {
	switch q.kind {
	case cloud.QueueFIFO:
		return q.env.Profile.FIFOMaxBatch // 10 on SQS FIFO
	case cloud.QueueStream:
		return 100
	default:
		return 10
	}
}

// Send enqueues a message, sleeping for the synchronous send-API latency
// and charging the per-message cost. It returns the assigned sequence
// number. The send latency is what the follower function pays at step ③
// of Algorithm 1 (the "Push" rows of Table 3).
func (q *Queue) Send(ctx cloud.Ctx, groupID string, body []byte) (int64, error) {
	p := q.env.Profile
	if len(body) > p.QueueMaxMsgB {
		return 0, ErrTooLarge
	}
	q.env.K.Sleep(q.env.OpTime(ctx, p.QueueSendBase, p.QueueSendPerKB, len(body)))
	q.env.Charge(ctx, "queue.msg", p.Pricing.QueueMsgCost(len(body)), 1)
	q.seqNo++
	m := Message{
		SeqNo:   q.seqNo,
		GroupID: groupID,
		Body:    append([]byte(nil), body...),
		SentAt:  q.env.K.Now(),
	}
	q.buf.Push(m)
	return m.SeqNo, nil
}

// Receive blocks until at least one message is available and returns a
// batch of up to max messages (capped by the queue technology), after the
// queue's delivery overhead. ok is false once the queue is closed and
// drained.
func (q *Queue) Receive(max int) ([]Message, bool) { return q.ReceiveInto(nil, max) }

// ReceiveInto is Receive appending the batch to buf: the poller API of faas
// triggers, each of which hands in its previous batch's buf[:0], so a warm
// poller receives without allocating.
func (q *Queue) ReceiveInto(buf []Message, max int) ([]Message, bool) {
	if limit := q.MaxBatch(); max <= 0 || max > limit {
		max = limit
	}
	// Unordered queues accumulate for a short window, producing the large
	// bursty batches observed in Figure 7b.
	window := sim.Time(0)
	if !q.Ordered() {
		window = 20 * sim.Ms(1)
	}
	if q.kind == cloud.QueueFIFO {
		// SQS FIFO paces its deliveries: a new batch only becomes visible
		// once the pacing interval from the previous one elapses. One
		// interval (groupFreeAt) paces the whole queue, whatever groups
		// its messages belong to. Idle queues are unaffected, but
		// sustained load saturates around a hundred requests per second
		// (Figure 7b).
		if wait := q.groupFreeAt - q.env.K.Now(); wait > 0 {
			q.env.K.Sleep(wait)
		}
	}
	batch := q.buf.PopBatch(buf, max, window)
	if len(batch) == len(buf) {
		return buf, false
	}
	q.env.K.Sleep(q.env.Profile.QueueDeliver[q.kind].Sample(q.env.K.Rand()))
	if h := q.env.K.Fault(); h != nil {
		if d := h.DeliveryDelay(q.name); d > 0 {
			q.env.K.Sleep(d)
		}
	}
	if q.kind == cloud.QueueFIFO {
		q.groupFreeAt = q.env.K.Now() + sim.Time(len(batch)-len(buf))*fifoGroupPacing
	}
	return batch, true
}

// fifoGroupPacing is the per-message serialization delay of an SQS FIFO
// queue (one pacing clock per queue, not per message group).
const fifoGroupPacing = 9 * time.Millisecond

// Close marks the queue closed so pollers drain and stop.
func (q *Queue) Close() {
	if !q.closed {
		q.closed = true
		q.buf.Close()
	}
}

// Len returns the number of buffered messages.
func (q *Queue) Len() int { return q.buf.Len() }

// Package network models the TCP connections of the reproduction: ordered,
// reliable, duplex links between clients and cloud endpoints (FaaSKeeper
// notification channels) and between ZooKeeper servers and clients.
//
// A link delivers messages in FIFO order after a one-way latency plus a
// size-dependent wire time. Sends do not block beyond a negligible local
// cost, mirroring kernel socket buffers.
//
// A link carries one payload type, T, in both directions: each user picks a
// type that says what its link carries (a FaaSKeeper session's tagged
// message, a ZooKeeper server's peer message), so a send copies its payload
// into the receiver's inbox by value and boxes nothing. The inbox keeps its
// array, so a link in steady state allocates nothing per message.
package network

import (
	"faaskeeper/internal/cloud"
	"faaskeeper/internal/sim"
)

// Packet is one framed message on a link.
type Packet[T any] struct {
	Payload T
	Size    int
}

type timedPacket[T any] struct {
	Packet[T]
	deliverAt sim.Time
}

// Conn is one duplex TCP-like connection. Use NewConn for a pair of ends.
type Conn[T any] struct {
	a, b *End[T]
}

// End is one endpoint of a connection.
type End[T any] struct {
	env         *cloud.Env
	peer        *End[T]
	inbox       *sim.Queue[timedPacket[T]]
	oneWay      sim.Dist
	crossRegion bool
	closed      bool
}

// NewConn creates a connection between two regions. Cross-region
// connections pay the inter-region penalty on every message.
func NewConn[T any](env *cloud.Env, ra, rb cloud.Region) *Conn[T] {
	return newConn[T](env, sim.Scale(env.Profile.ClientRTT, 0.5), ra != rb)
}

// NewLANConn creates a low-latency connection inside one deployment
// (ZooKeeper server <-> server, server <-> collocated client).
func NewLANConn[T any](env *cloud.Env) *Conn[T] {
	return newConn[T](env, sim.Scale(env.Profile.LANRTT, 0.5), false)
}

func newConn[T any](env *cloud.Env, oneWay sim.Dist, cross bool) *Conn[T] {
	mk := func() *End[T] {
		return &End[T]{
			env:         env,
			inbox:       sim.NewQueue[timedPacket[T]](env.K),
			oneWay:      oneWay,
			crossRegion: cross,
		}
	}
	c := &Conn[T]{a: mk(), b: mk()}
	c.a.peer, c.b.peer = c.b, c.a
	return c
}

// A returns the first endpoint.
func (c *Conn[T]) A() *End[T] { return c.a }

// B returns the second endpoint.
func (c *Conn[T]) B() *End[T] { return c.b }

// Send transmits a payload of the given size to the peer. It never blocks
// the sender for the full flight time; delivery order is FIFO and delivery
// time is monotone per direction (TCP semantics). Neither needs a clamp on
// the instant a packet is due: the inbox is FIFO, and its one receiver
// sleeps to each packet's instant only after it took the one before, so a
// packet due earlier than its predecessor is delivered right after it.
func (e *End[T]) Send(payload T, size int) {
	if e.closed || e.peer.closed {
		return
	}
	env := e.env
	delay := e.oneWay.Sample(env.K.Rand())
	if e.crossRegion {
		delay += env.Profile.XRegionBase.Sample(env.K.Rand()) / 2
	}
	if env.Profile.WireKBps > 0 && size > 0 {
		delay += sim.Time(float64(size) / 1024 / env.Profile.WireKBps * float64(sim.Ms(1)))
	}
	e.peer.inbox.Push(timedPacket[T]{Packet: Packet[T]{Payload: payload, Size: size}, deliverAt: env.K.Now() + delay})
}

// Recv blocks until the next message arrives and returns it. ok is false
// once the connection is closed and drained.
func (e *End[T]) Recv() (Packet[T], bool) {
	tp, ok := e.inbox.Pop()
	if !ok {
		return Packet[T]{}, false
	}
	if wait := tp.deliverAt - e.env.K.Now(); wait > 0 {
		e.env.K.Sleep(wait)
	}
	return tp.Packet, true
}

// Close closes this end; subsequent sends from either side are dropped and
// pending receives drain then report closure.
func (e *End[T]) Close() {
	if !e.closed {
		e.closed = true
		e.inbox.Close()
	}
}

// Pending returns the number of undelivered messages (test helper).
func (e *End[T]) Pending() int { return e.inbox.Len() }

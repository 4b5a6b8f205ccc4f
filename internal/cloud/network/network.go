// Package network models the TCP connections of the reproduction: ordered,
// reliable, duplex links between clients and cloud endpoints (FaaSKeeper
// notification channels) and between ZooKeeper servers and clients.
//
// A link delivers messages in FIFO order after a one-way latency plus a
// size-dependent wire time. Sends do not block beyond a negligible local
// cost, mirroring kernel socket buffers.
package network

import (
	"faaskeeper/internal/cloud"
	"faaskeeper/internal/sim"
)

// Packet is one framed message on a link.
type Packet struct {
	Payload any
	Size    int
}

type timedPacket struct {
	Packet
	deliverAt sim.Time
}

// Conn is one duplex TCP-like connection. Use NewConn for a pair of ends.
type Conn struct {
	env  *cloud.Env
	a, b *End
}

// End is one endpoint of a connection.
type End struct {
	env         *cloud.Env
	peer        *End
	inbox       *sim.Queue[timedPacket]
	lastDeliver sim.Time
	oneWay      sim.Dist
	crossRegion bool
	closed      bool
}

// NewConn creates a connection between two regions. Cross-region
// connections pay the inter-region penalty on every message.
func NewConn(env *cloud.Env, ra, rb cloud.Region) *Conn {
	c := &Conn{env: env}
	cross := ra != rb
	mk := func() *End {
		return &End{
			env:         env,
			inbox:       sim.NewQueue[timedPacket](env.K),
			oneWay:      sim.Scale(env.Profile.ClientRTT, 0.5),
			crossRegion: cross,
		}
	}
	c.a, c.b = mk(), mk()
	c.a.peer, c.b.peer = c.b, c.a
	return c
}

// NewLANConn creates a low-latency connection inside one deployment
// (ZooKeeper server <-> server, server <-> collocated client).
func NewLANConn(env *cloud.Env) *Conn {
	c := &Conn{env: env}
	mk := func() *End {
		return &End{
			env:    env,
			inbox:  sim.NewQueue[timedPacket](env.K),
			oneWay: sim.Scale(env.Profile.LANRTT, 0.5),
		}
	}
	c.a, c.b = mk(), mk()
	c.a.peer, c.b.peer = c.b, c.a
	return c
}

// A returns the first endpoint.
func (c *Conn) A() *End { return c.a }

// B returns the second endpoint.
func (c *Conn) B() *End { return c.b }

// Send transmits a payload of the given size to the peer. It never blocks
// the sender for the full flight time; delivery order is FIFO and delivery
// time is monotone per direction (TCP semantics).
func (e *End) Send(payload any, size int) {
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
	at := env.K.Now() + delay
	if at < e.peer.lastDeliver {
		at = e.peer.lastDeliver // no reordering on the wire
	}
	e.peer.lastDeliver = at
	e.peer.inbox.Push(timedPacket{Packet: Packet{Payload: payload, Size: size}, deliverAt: at})
}

// Recv blocks until the next message arrives and returns it. ok is false
// once the connection is closed and drained.
func (e *End) Recv() (Packet, bool) {
	for {
		tp, ok := e.inbox.Pop()
		if !ok {
			return Packet{}, false
		}
		if wait := tp.deliverAt - e.env.K.Now(); wait > 0 {
			e.env.K.Sleep(wait)
		}
		return tp.Packet, true
	}
}

// Close closes this end; subsequent sends from either side are dropped and
// pending receives drain then report closure.
func (e *End) Close() {
	if !e.closed {
		e.closed = true
		e.inbox.Close()
	}
}

// Pending returns the number of undelivered messages (test helper).
func (e *End) Pending() int { return e.inbox.Len() }

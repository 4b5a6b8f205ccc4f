package core

import (
	"faaskeeper/internal/cloud/faas"
	"faaskeeper/internal/cloud/queue"
	"faaskeeper/internal/sim"
	"faaskeeper/internal/wire"
)

// heartbeatPrepBase is the per-client probe preparation cost inside the
// heartbeat sandbox (scaled by the sandbox's CPU/I/O allocation).
var heartbeatPrepBase = sim.Q(0.3, 1.2, 2.5, 4.0, 10)

// watchHandler is the free watch function (Section 4.1 "Decoupling Watch
// Delivery"): it fans one notification out to every subscribed client in
// parallel and waits for the deliveries before returning, which is what
// lets the leader's epoch bookkeeping treat the invocation's completion as
// "notification delivered".
func (d *Deployment) watchHandler(inv *faas.Invocation) error {
	p, err := decodeWatchPayload(inv.Payload)
	if err != nil {
		return err
	}
	n := Notification{WatchID: p.WatchID, Event: p.Event, Path: p.Path, Txid: p.Txid}
	wg := sim.NewWaitGroup(d.K)
	for _, session := range p.Sessions {
		wg.Go("watch-send", func() {
			d.notify(session, n, n.wireSize())
			// Wait one round trip for the client's TCP-level delivery
			// acknowledgment before declaring the notification delivered.
			d.K.Sleep(d.Env.Profile.ClientRTT.Sample(d.K.Rand()))
		})
	}
	wg.Wait()
	return nil
}

// heartbeatHandler is the scheduled heartbeat function (Section 3.6): scan
// the session table, ping every session that owns ephemeral nodes in
// parallel, and start eviction for the ones that do not answer in time by
// queueing a deregistration request into their processing queue.
func (d *Deployment) heartbeatHandler(inv *faas.Invocation) error {
	t0 := d.K.Now()
	defer func() { d.recordPhase("heartbeat.total", d.K.Now()-t0) }()
	// Heartbeat work (and the sandbox's own GB-s) is system overhead: no
	// single request caused it, so it bills the ledger's trace-0 bucket.
	inv.Ctx = d.billSys(inv.Ctx, 0)
	inv.Bill = inv.Ctx.Bill
	items := d.System.Scan(inv.Ctx)
	type probe struct {
		session string
		alive   *sim.Future[bool]
	}
	var probes []probe
	for _, it := range items {
		if len(it.Key) <= len(sessionKeyPrefix) || it.Key[:len(sessionKeyPrefix)] != sessionKeyPrefix {
			continue
		}
		session := it.Key[len(sessionKeyPrefix):]
		if len(it.Item.Get(attrSessionEph).SL()) == 0 {
			continue // no ephemeral state at risk: skip the probe
		}
		st := d.sessions[session]
		alive := sim.NewFuture[bool](d.K)
		probes = append(probes, probe{session: session, alive: alive})
		if st == nil || st.closed {
			alive.Complete(false)
			continue
		}
		// Preparing each probe (serialization, connection setup) is
		// sequential work inside the sandbox; its cost shrinks with larger
		// memory allocations, which is why Figure 13's execution time
		// drops as memory grows.
		d.K.Sleep(d.Env.OpTime(inv.Ctx, heartbeatPrepBase, sim.Ms(1), 1024))
		nonce := d.K.Rand().Int63()
		d.K.Go("heartbeat-ping", func() {
			d.notify(session, Ping{Nonce: nonce}, 16)
			deadline := d.K.Now() + heartbeatTimeout
			for {
				remaining := deadline - d.K.Now()
				if remaining <= 0 {
					alive.TryComplete(false)
					return
				}
				pong, ok := st.pongs.PopTimeout(remaining)
				if !ok {
					alive.TryComplete(false)
					return
				}
				if pong.Nonce == nonce {
					alive.TryComplete(true)
					return
				}
				// Stale pong from a previous round: keep waiting.
			}
		})
	}
	for _, p := range probes {
		if p.alive.Wait() {
			continue
		}
		d.evictSession(inv, p.session)
	}
	return nil
}

// evictSession places a deregistration request in the dead session's
// processing queue so its ephemeral nodes are removed through the ordinary
// ordered write path.
func (d *Deployment) evictSession(inv *faas.Invocation, session string) {
	st := d.sessions[session]
	var q *queue.Queue
	if st != nil && !st.closed {
		q = st.Queue
	} else {
		// Transport already gone (client process died): run the
		// deregistration inline; the system store is the source of truth.
		req := Request{Session: session, Op: OpDeregister, Version: -1}
		_ = d.followerDeregister(inv.Ctx, req)
		return
	}
	req := Request{Session: session, Op: OpDeregister, Version: -1}
	e := wire.NewEncoder()
	_, _ = q.Send(inv.Ctx, session, req.Encode(e))
	e.Release()
}

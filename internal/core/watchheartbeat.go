package core

import (
	"slices"
	"time"

	"faaskeeper/internal/cloud/faas"
	"faaskeeper/internal/cloud/kv"
	"faaskeeper/internal/sim"
	"faaskeeper/internal/wire"
)

// heartbeatPrepBase is the per-client probe preparation cost inside the
// heartbeat sandbox (scaled by the sandbox's CPU/I/O allocation).
var heartbeatPrepBase = sim.Q(0.3, 1.2, 2.5, 4.0, 10)

// watchHandler is the free watch function (Section 4.1 "Decoupling Watch
// Delivery"): it fans one notification out to every subscribed client in
// parallel, waits for their acknowledgments, and then removes its own epoch
// entry from every region's epoch item (➏): the leader that fired it waits
// for nothing. A delivery waits one round trip for the client's TCP-level
// acknowledgment, and a send never blocks, so the parallel fan-out is one
// loop: each session's send and the draw of its acknowledgment's round
// trip, in session order, then one wait for the slowest. The loop runs after
// the events already due at the instant (Sleep(0)), where a process per
// session would have started, so every event and random draw lands where it
// would.
//
// Within a shard, deliveries keep txid order: first the function waits out
// the entries its payload lists — the shard's entries listed when the
// leader fired it (enterEpochs), each removed only once its delivery was
// acknowledged — re-reading the home region's item every entryPoll, for at
// most entryWaitMax: an entry whose delivery died before its exit holds the
// shard's later deliveries that long, once. An entry
// never comes back once removed, so each read drops the ones gone. With
// none, as on every delivery that overlaps no earlier one of its shard, it
// reads nothing.
func (d *Deployment) watchHandler(inv *faas.Invocation) error {
	p, err := decodeWatchPayload(inv.Payload)
	if err != nil {
		return err
	}
	for end := d.K.Now() + entryWaitMax; len(p.Waits) > 0 && d.K.Now() < end; {
		it, _ := d.System.GetView(inv.Ctx, d.epochKey(d.Stores[0].Region()), true)
		if p.Waits = slices.DeleteFunc(p.Waits, func(e string) bool { _, ok := it.Lookup(e); return !ok }); len(p.Waits) > 0 {
			d.K.Sleep(entryPoll)
		}
	}
	m := SessionMsg{Kind: MsgNotification, Notification: Notification{WatchID: p.WatchID, Event: p.Event, Path: p.Path, Txid: p.Txid}}
	var slowest sim.Time
	d.K.Sleep(0)
	for _, session := range p.Sessions {
		d.notify(session, m, m.Notification.wireSize())
		slowest = max(slowest, d.Env.Profile.ClientRTT.Sample(d.K.Rand()))
	}
	d.K.Sleep(slowest)
	for _, s := range d.Stores {
		_, _ = d.System.Update(inv.Ctx, d.epochKey(s.Region()), []kv.Update{kv.Remove{Name: p.Entry}}, nil)
	}
	return nil
}

// entryPoll is how often a delivery re-reads the home region's epoch item
// while an entry it waits out is listed, and entryWaitMax how long it waits
// at most: the client's request timeout.
const entryPoll, entryWaitMax = 2 * time.Millisecond, 60 * time.Second

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
			d.notify(session, SessionMsg{Kind: MsgPing, Nonce: nonce}, 16)
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
				if pong == nonce {
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
	req := Request{Session: session, Op: OpDeregister, Version: -1}
	if st := d.sessions[session]; st != nil && !st.closed {
		e := wire.NewEncoder()
		_, _ = st.Queue.Send(inv.Ctx, session, req.Encode(e))
		e.Release()
		return
	}
	// Transport already gone (client process died): run the deregistration
	// inline; the system store is the source of truth.
	_ = d.followerDeregister(inv.Ctx, req)
}

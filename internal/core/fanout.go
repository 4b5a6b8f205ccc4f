package core

// Leader-side integration of the hierarchical watch fan-out tier
// (package watchfanout, behind Config.WatchFanout).
//
// With the tier on, the leader's watch-query step — a system-store
// GetView plus a conditional remove per fired one-shot group, both
// O(watcher-list size) — is replaced by ONE notification record per
// (path, txid) published to each region's fan-out node. The node owns
// registration matching and per-session delivery, and hands back only
// the watch ids that just became in-flight, which the leader appends to
// that region's shard epoch list so the client-side Z4 read gate keeps
// seeing in-flight watches in value stamps. After the change is
// distributed to the user stores, the leader releases the txid: parked
// firings become deliverable, and no session can be notified of a write
// it cannot yet read. Epoch-list *removal* also moves off the leader —
// the node retires a watch id once its last in-flight firing is
// delivered or coalesced into a newer one.

import (
	"errors"
	"time"

	"faaskeeper/internal/cloud"
	"faaskeeper/internal/cloud/kv"
	"faaskeeper/internal/obs"
	"faaskeeper/internal/sim"
	"faaskeeper/internal/watchfanout"
)

// ErrFanoutOff rejects persistent/recursive watch registration when the
// fan-out tier is disabled: the legacy system-store watch items have no
// representation for them.
var ErrFanoutOff = errors.New("core: persistent watches require Config.WatchFanout")

// fanoutOn reports whether the fan-out tier owns watch matching and
// delivery for this deployment.
func (d *Deployment) fanoutOn() bool { return len(d.Fanouts) > 0 }

// fanoutChange maps a committed mutation to the one-record publication.
// Reads and control ops publish nothing.
func fanoutChange(msg leaderMsg, txid int64) (watchfanout.Change, bool) {
	var op watchfanout.Op
	switch msg.Op {
	case OpSetData:
		op = watchfanout.OpSet
	case OpCreate:
		op = watchfanout.OpCreate
	case OpDelete:
		op = watchfanout.OpDelete
	default:
		return watchfanout.Change{}, false
	}
	return watchfanout.Change{
		Op: op, Path: msg.Path, Parent: msg.ParentPath, Txid: txid, Shard: msg.Shard,
	}, true
}

// fanoutPublish is the fan-out replacement for queryWatches+appendEpochs
// on the leader hot path: publish the change to every region's node in
// parallel and stamp only the newly in-flight watch ids onto that
// region's shard epoch list (and the batch's in-memory mirror).
func (d *Deployment) fanoutPublish(ctx cloud.Ctx, msg leaderMsg, txid int64, epochs map[cloud.Region][]int64) {
	ch, ok := fanoutChange(msg, txid)
	if !ok {
		return
	}
	sp := d.tspan(d.msgTrace(msg), obs.SpanFanoutPublish, msg.Path, msg.Shard, "")
	pctx := d.billSpan(ctx, costMsgTrace(msg), sp, msg.Shard, "")
	wg := sim.NewWaitGroup(d.K)
	for _, n := range d.Fanouts {
		n := n
		wg.Add(1)
		d.K.Go("fanout-publish", func() {
			defer wg.Done()
			r := n.Region()
			for _, wid := range n.Publish(pctx, ch) {
				if _, err := d.System.Update(pctx, d.epochKey(r, msg.Shard),
					[]kv.Update{kv.ListAppend{Name: attrEpochList, Vals: []int64{wid}}}, nil); err == nil {
					epochs[r] = append(epochs[r], wid)
				}
			}
		})
	}
	wg.Wait()
	d.spanEnd(sp)
}

// fanoutRelease makes txid's parked firings deliverable on every node.
// Called after the change is readable in the user stores.
func (d *Deployment) fanoutRelease(ctx cloud.Ctx, txid int64) {
	for _, n := range d.Fanouts {
		n.Release(ctx, txid)
	}
}

// fanoutRegister adds a registration on the session's regional node and,
// for persistent kinds, appends the path to the session's durable watch
// set (read back at connect for cache warm-up).
func (d *Deployment) fanoutRegister(ctx cloud.Ctx, path string, wt WatchType, sessionID string, policy watchfanout.Policy, interval time.Duration) (int64, error) {
	n := d.FanoutFor(ctx.Region)
	if n == nil {
		return 0, ErrFanoutOff
	}
	wid := WatchID(path, wt)
	n.Register(ctx, watchfanout.Registration{
		Session:  sessionID,
		Path:     path,
		Kind:     watchfanout.Kind(wt),
		Policy:   policy,
		Interval: sim.Time(interval),
		WID:      wid,
	})
	if wt >= WatchPersistent {
		if _, err := d.System.Update(ctx, watchSetKey(sessionID),
			[]kv.Update{kv.StrListAppend{Name: attrWatchSet, Vals: []string{path}}}, nil); err != nil {
			return 0, err
		}
	}
	return wid, nil
}

// AddWatch registers a ZooKeeper 3.6-style persistent (or persistent
// recursive) watch for the session: data and child events fire without
// re-arming, a recursive registration covers the whole subtree, and the
// regional node paces deliveries by the registration's policy. Requires
// Config.WatchFanout.
func (d *Deployment) AddWatch(ctx cloud.Ctx, path string, recursive bool, policy watchfanout.Policy, interval time.Duration, sessionID string) (int64, error) {
	wt := WatchPersistent
	if recursive {
		wt = WatchPersistentRecursive
	}
	return d.fanoutRegister(ctx, path, wt, sessionID, policy, interval)
}

// SessionWatchSet reads back the session's durable persistent-watch
// paths (one strongly consistent system-store read).
func (d *Deployment) SessionWatchSet(ctx cloud.Ctx, sessionID string) []string {
	it, ok := d.System.GetView(ctx, watchSetKey(sessionID), true)
	if !ok {
		return nil
	}
	return append([]string(nil), it.Get(attrWatchSet).SL...)
}

// FanoutKick is the client Z4 gate's escape hatch (see watchfanout.Kick):
// flush any open coalescing window for wid on the session's regional node
// and return the node's delivery watermark for it.
func (d *Deployment) FanoutKick(ctx cloud.Ctx, wid int64) int64 {
	n := d.FanoutFor(ctx.Region)
	if n == nil {
		return 0
	}
	return n.Kick(ctx, wid)
}

// Package fkclient is the FaaSKeeper client library (Section 3.5),
// modeled after kazoo's API. Reads go straight to cloud storage; writes
// travel through the session's FIFO queue. Because the server-side event
// coordination of ZooKeeper is gone, the client enforces the session's
// FIFO order, delivers watch callbacks in order, and stalls reads that
// would otherwise overtake an undelivered watch notification (epoch
// counters + MRD, Section 3.4). The paper's client uses three threads for
// this: a request sender, a response receiver and an orderer. Here the
// orderer's work never blocks, so the receiver does it as each packet
// arrives, which keeps the same order with two workers.
package fkclient

import (
	"errors"
	"maps"
	"slices"
	"strings"
	"time"

	"faaskeeper/internal/cache"
	"faaskeeper/internal/cloud"
	"faaskeeper/internal/core"
	"faaskeeper/internal/obs"
	"faaskeeper/internal/shardmap"
	"faaskeeper/internal/sim"
	"faaskeeper/internal/txn"
	"faaskeeper/internal/wire"
	"faaskeeper/internal/znode"
)

// ErrTimeout is returned when a request receives no response.
var ErrTimeout = core.ErrTimeout

// DefaultRequestTimeout bounds how long a write waits for its response.
const DefaultRequestTimeout = 60 * time.Second

// WatchCallback receives one-shot watch events.
type WatchCallback = core.WatchCallback

// Client is one FaaSKeeper session.
type Client struct {
	d         *core.Deployment
	id        string
	ctx       cloud.Ctx
	store     core.UserStore
	transport *core.SessionTransport

	submitQ   *sim.Queue[*pendingOp]
	callbacks *sim.Queue[watchFire]

	// outstanding holds the unreleased writes in submission order. Their
	// seqs run consecutively, so an answer finds its op by its seq's
	// distance from the head's.
	nextSeq     int64
	outstanding sim.FIFO[*pendingOp]
	lastWrite   *sim.Future[core.Response]

	// mrd tracks, per write shard, the newest txid across delivered
	// notifications. Txids are only totally ordered within a shard, so the
	// read-ordering shortcut ("updates older than the MRD are always
	// safe") must compare against the owning shard's MRD; with one shard
	// this is exactly the paper's single MRD register.
	mrd []int64

	// Read-path cache tier (nil / unused when CacheMode is off, keeping
	// the direct path byte-for-byte the paper's). rcache is the region's
	// shared cache node. lastSeen is the per-path floor of the session
	// guard: the newest transaction this session has observed *for that
	// path* — through reads or its own write responses — so one hot node
	// doesn't evict every colder path from cacheability while Z3's
	// per-node monotonicity still holds exactly. Past lastSeenCap paths its
	// older half folds into seenFloor, which floors every path (see).
	rcache    *cache.Regional
	lastSeen  map[string]int64
	seenFloor int64

	// route is the deployment's write route: the shard whose MRD floors a
	// cached path, and whether the path is shared between shards.
	route  *shardmap.Map
	hits   int64 // reads the regional node served
	misses int64 // reads that fell through to the user store

	watches map[int64]*watchEntry
	// arming counts the watched reads in flight; the callbacks of
	// notifications that arrive meanwhile are held until none is (armed).
	arming int
	held   sim.FIFO[watchFire]

	closed  bool
	crashed bool
}

type pendingOp struct {
	req core.Request
	// done is the op's completion future, held by value so that a write
	// allocates its pending op and nothing else for it.
	done sim.Future[core.Response]
	// resp is the op's answer once ready, held until every earlier op's
	// has been released.
	resp  core.Response
	ready bool
}

type watchEntry struct {
	cb WatchCallback
	// delivered completes with the entry's notification; held by value, so
	// that an entry is the one allocation a registration keeps.
	delivered sim.Future[core.Notification]
	path      string
	wt        core.WatchType

	// armMRD snapshots the per-shard MRD at registration time. A watch id
	// is a pure hash of (path, type), so a re-registration after a
	// delivered fire aliases the old id — and node versions stamped by
	// the *previous* registration's fire would otherwise block the Z4
	// epoch wait against the new entry forever (the canonical
	// read-then-re-arm pattern would wedge until an unrelated next
	// write). A version at or below the arm-time MRD of its minting shard
	// cannot have a notification in flight for this registration: any
	// transaction that fires the new watch read the registration in its
	// commit check, so its commit phase ran after the registration landed,
	// and a notification already delivered by then was launched behind the
	// flush of a transaction earlier in the shard's order. With one shard it
	// points into armOne.
	armMRD []int64
	armOne [1]int64
}

// watchFire is one callback due to run with the notification that fired
// it, queued for the session's event worker.
type watchFire struct {
	cb WatchCallback
	n  core.Notification
}

// Connect registers a new session and starts the client workers. It must
// be called from inside a sim process.
func Connect(d *core.Deployment, id string, region cloud.Region) (*Client, error) {
	c := &Client{
		d:         d,
		id:        id,
		ctx:       d.BillSystemCtx(cloud.ClientCtx(region)),
		store:     d.StoreFor(region),
		transport: d.Connect(id, region),
		submitQ:   sim.NewQueue[*pendingOp](d.K),
		callbacks: sim.NewQueue[watchFire](d.K),
		mrd:       make([]int64, d.NumShards()),
		watches:   map[int64]*watchEntry{},
		route:     d.Route(),
	}
	if rc := d.CacheFor(region); rc != nil {
		c.rcache = rc
		c.lastSeen = map[string]int64{}
	}
	if err := d.RegisterSession(c.ctx, id); err != nil {
		return nil, err
	}
	d.K.Go("client-sender-"+id, c.senderLoop)
	d.K.Go("client-responder-"+id, c.responderLoop)
	d.K.Go("client-events-"+id, c.callbackLoop)
	return c, nil
}

// ID returns the session id.
func (c *Client) ID() string { return c.id }

// MRD returns the newest transaction id delivered through notifications
// (across all write shards).
func (c *Client) MRD() int64 { return slices.Max(c.mrd) }

// senderLoop is worker 1: serialize requests into the session queue, one
// at a time, preserving the session's FIFO order.
func (c *Client) senderLoop() {
	for {
		op, ok := c.submitQ.Pop()
		if !ok {
			return
		}
		e := wire.NewEncoder()
		// The ingress send is the first charge of the request's bill.
		_, err := c.transport.Queue.Send(c.d.BillRequestCtx(c.ctx, op.req), c.id, op.req.Encode(e))
		e.Release()
		if err != nil {
			// The request never reached the pipeline: this is its answer.
			c.onResponse(core.Response{Session: c.id, Seq: op.req.Seq, Code: core.CodeSystemError})
			continue
		}
		c.traceStage(op.req, obs.StageQueue)
	}
}

// responderLoop is worker 2: receive responses, notifications, and
// heartbeat pings from the session connection. It is also the orderer:
// it releases write responses in submission order and delivers watch
// notifications in arrival order, updating the MRD.
func (c *Client) responderLoop() {
	for {
		pkt, ok := c.transport.ClientEnd.Recv()
		if !ok {
			c.callbacks.Close()
			return
		}
		if c.crashed {
			continue // a dead client reads nothing and answers nothing
		}
		switch m := &pkt.Payload; m.Kind {
		case core.MsgPing:
			c.transport.ClientEnd.Send(core.SessionMsg{Kind: core.MsgPong, Nonce: m.Nonce}, 16)
		case core.MsgResponse:
			c.onResponse(m.Response)
		case core.MsgNotification:
			c.onNotification(m.Notification)
		}
	}
}

// callbackLoop runs user watch callbacks outside the receiver, so a
// callback may itself issue reads and writes without deadlocking the
// session (the callbacks still run in notification order).
func (c *Client) callbackLoop() {
	for {
		f, ok := c.callbacks.Pop()
		if !ok {
			return
		}
		f.cb(f.n)
	}
}

func (c *Client) onResponse(r core.Response) {
	fifo := &c.outstanding
	if fifo.Len() == 0 {
		return // nothing outstanding: a duplicate
	}
	i := int(r.Seq - fifo.At(0).req.Seq)
	if i < 0 || i >= fifo.Len() || fifo.At(i).ready {
		return // released already, or a retried batch re-answered: first wins
	}
	fifo.At(i).resp, fifo.At(i).ready = r, true
	// Release responses strictly in submission order (FIFO, Z1/Z2).
	for fifo.Len() > 0 && fifo.At(0).ready {
		op := fifo.Pop()
		resp := op.resp
		if resp.Code == core.CodeOK {
			if len(resp.MultiResults) > 0 {
				c.noteOwnMulti(resp.MultiResults)
			} else {
				c.noteOwnWrite(op.req, resp)
			}
		}
		op.done.TryComplete(resp)
		c.traceFinish(op.req)
	}
}

// noteOwnWrite raises the session's per-path cache floors after one of its
// writes commits, so read-your-writes holds through the cache tier: the
// node itself, and — for creates and deletes — its parent, whose child
// list changed under the same transaction. The floors are keyed by the
// request's own path: the answer's views a queue message, which a map key
// would keep alive, so a sequential create's resolved name is cloned.
func (c *Client) noteOwnWrite(req core.Request, resp core.Response) {
	if c.rcache == nil || req.Op == core.OpDeregister {
		return
	}
	path := req.Path
	if resp.Path != path {
		path = strings.Clone(resp.Path)
	}
	c.see(path, resp.Txid)
	if req.Op == core.OpCreate || req.Op == core.OpDelete {
		c.see(znode.Parent(path), resp.Txid)
	}
}

// noteOwnMulti raises the session's floors for every sub-operation of a
// committed multi(): the same read-your-writes bookkeeping noteOwnWrite
// performs per single op, including the parents whose child lists the
// transaction's creates and deletes rewrote.
func (c *Client) noteOwnMulti(results []txn.Result) {
	if c.rcache == nil {
		return
	}
	for _, r := range results {
		if r.Code != txn.CodeOK || r.Txid == 0 {
			continue
		}
		path := strings.Clone(r.Path) // a map key: r.Path views a queue message
		c.see(path, r.Txid)
		if r.Type == txn.OpCreate || r.Type == txn.OpDelete {
			c.see(znode.Parent(path), r.Txid)
		}
	}
}

// lastSeenCap bounds a session's per-path floors, as the regional node
// bounds its own (cache.Regional.compactFloors).
const lastSeenCap = 64 << 10

// see raises the session's floor for path to txid. Past lastSeenCap paths
// the older half (by txid) folds into seenFloor, which fetch applies to
// every path: the fold mixes shards' txids, so it can only over-reject — a
// cached read of a low-txid shard's path falls through to the store.
func (c *Client) see(path string, txid int64) {
	if txid <= c.lastSeen[path] {
		return
	}
	c.lastSeen[path] = txid
	if len(c.lastSeen) <= lastSeenCap {
		return
	}
	txids := make([]int64, 0, len(c.lastSeen))
	for _, t := range c.lastSeen {
		txids = append(txids, t)
	}
	slices.Sort(txids)
	cut := txids[len(txids)/2]
	maps.DeleteFunc(c.lastSeen, func(_ string, t int64) bool { return t <= cut })
	c.seenFloor = max(c.seenFloor, cut)
}

// mintShard recovers the shard that minted a txid from the interleave
// txid = seqNo*N + shard.
func (c *Client) mintShard(txid int64) int {
	return int(txid % int64(c.d.NumShards()))
}

func (c *Client) onNotification(n core.Notification) {
	// Attribute the txid to the shard that issued it. The shard is
	// recovered from the txid itself (txid = seqNo*N + shard), not from
	// the notification path: a child watch on "/" fires with the root's
	// path but a txid minted by the created child's shard.
	shard := c.mintShard(n.Txid)
	if n.Txid > c.mrd[shard] {
		c.mrd[shard] = n.Txid
	}
	entry, ok := c.watches[n.WatchID]
	if !ok {
		return
	}
	delete(c.watches, n.WatchID) // one-shot, as in ZooKeeper
	entry.delivered.TryComplete(n)
	if entry.cb != nil {
		if f := (watchFire{entry.cb, n}); c.arming > 0 {
			c.held.Push(f)
		} else {
			c.callbacks.Push(f)
		}
	}
}

// Causal-trace hooks (package obs). The client mints the trace id from
// (session, seq) — the same derivation every pipeline stage repeats — and
// owns the chain's two endpoints: the root span opens at submission and
// closes when the ordered response releases. Deregistrations are excluded
// (their fan-out acks don't follow the one-request-one-chain shape), and
// with telemetry off each hook is a single nil-safe boolean check.

func (c *Client) traceStart(req core.Request) {
	if t := c.d.Obs.Tracer; t.Enabled() && req.Op != core.OpDeregister {
		t.StartRequest(obs.TraceOf(req.Session, req.Seq), string(req.Op), req.Path)
	}
}

func (c *Client) traceStage(req core.Request, stage string) {
	if t := c.d.Obs.Tracer; t.Enabled() && req.Op != core.OpDeregister {
		t.Stage(obs.TraceOf(req.Session, req.Seq), stage)
	}
}

func (c *Client) traceFinish(req core.Request) {
	if t := c.d.Obs.Tracer; t.Enabled() && req.Op != core.OpDeregister {
		t.Finish(obs.TraceOf(req.Session, req.Seq))
	}
}

// submitWrite queues a request and returns its completion future.
func (c *Client) submitWrite(op core.OpCode, path string, data []byte, version int32, flags znode.Flags) *sim.Future[core.Response] {
	c.nextSeq++
	seq := c.nextSeq
	p := &pendingOp{
		req: core.Request{
			Session: c.id, Seq: seq, Op: op, Path: path,
			Data: data, Version: version, Flags: flags,
		},
		done: sim.MakeFuture[core.Response](c.d.K),
	}
	c.outstanding.Push(p)
	c.lastWrite = &p.done
	c.traceStart(p.req)
	c.submitQ.Push(p)
	return &p.done
}

func (c *Client) await(f *sim.Future[core.Response]) (core.Response, error) {
	resp, ok := f.WaitTimeout(DefaultRequestTimeout)
	if !ok {
		return core.Response{}, ErrTimeout
	}
	return resp, core.CodeError(resp.Code)
}

// Write submits one create, set_data or delete and returns its answer: for
// an acked write the txid it committed at and, for a create or a set, the
// node's Stat as of that txid. version -1 matches any version; flags apply
// to a create only.
func (c *Client) Write(op core.OpCode, path string, data []byte, version int32, flags znode.Flags) (core.Response, error) {
	if err := c.check(path); err != nil {
		return core.Response{}, err
	}
	if len(data) > core.MaxNodeB {
		return core.Response{}, core.ErrTooLarge
	}
	return c.await(c.submitWrite(op, path, data, version, flags))
}

// Create creates a node and returns its final path (which differs from the
// requested path for sequential nodes).
func (c *Client) Create(path string, data []byte, flags znode.Flags) (string, error) {
	resp, err := c.Write(core.OpCreate, path, data, -1, flags)
	if err != nil {
		return "", err
	}
	if resp.Path == path {
		return path, nil
	}
	return strings.Clone(resp.Path), nil // a resolved name views a queue message
}

// SetData replaces a node's data; version -1 matches any version.
func (c *Client) SetData(path string, data []byte, version int32) (znode.Stat, error) {
	resp, err := c.Write(core.OpSetData, path, data, version, 0)
	return resp.Stat, err
}

// Delete removes a node; version -1 matches any version.
func (c *Client) Delete(path string, version int32) error {
	_, err := c.Write(core.OpDelete, path, nil, version, 0)
	return err
}

// Multi submits a ZooKeeper-style transaction: all ops commit atomically
// or none do (create/set_data/delete/check, built with txn.Create,
// txn.SetData, txn.Delete, txn.Check), in one message through one write
// shard's leader pipeline. Ops whose writes span shards are rejected with
// core.ErrCrossShard. The per-op results are returned even on a rollback,
// where the failing op carries its own code and its siblings report
// txn.CodeAborted.
func (c *Client) Multi(ops ...txn.Op) ([]txn.Result, error) {
	if c.closed {
		return nil, core.ErrSessionClosed
	}
	if len(ops) == 0 {
		return nil, core.ErrSystemError
	}
	for _, op := range ops {
		if err := znode.ValidatePath(op.Path); err != nil {
			return nil, err
		}
		if len(op.Data) > core.MaxNodeB {
			return nil, core.ErrTooLarge
		}
	}
	resp, err := c.await(c.submitWrite(core.OpMulti, ops[0].Path, txn.EncodeOps(ops), 0, 0))
	return resp.MultiResults, err
}

// GetData reads a node directly from the user store.
func (c *Client) GetData(path string) ([]byte, znode.Stat, error) {
	return c.GetDataW(path, nil)
}

// GetDataW reads a node and, when cb is non-nil, leaves a one-shot data
// watch that fires on the next change or deletion.
func (c *Client) GetDataW(path string, cb WatchCallback) ([]byte, znode.Stat, error) {
	if err := c.check(path); err != nil {
		return nil, znode.Stat{}, err
	}
	var arm watchArm
	if cb != nil {
		var err error
		if arm, err = c.registerWatch(path, core.WatchData, cb); err != nil {
			return nil, znode.Stat{}, err
		}
	}
	n, err := c.read(path, arm)
	if err != nil {
		return nil, znode.Stat{}, err
	}
	return n.Data, n.Stat, nil
}

// Exists returns the node's Stat, or nil when the node does not exist.
func (c *Client) Exists(path string) (*znode.Stat, error) {
	return c.ExistsW(path, nil)
}

// ExistsW is Exists with an optional one-shot watch that fires when the
// node is created, deleted, or modified.
func (c *Client) ExistsW(path string, cb WatchCallback) (*znode.Stat, error) {
	if err := c.check(path); err != nil {
		return nil, err
	}
	var arm watchArm
	if cb != nil {
		var err error
		if arm, err = c.registerWatch(path, core.WatchExists, cb); err != nil {
			return nil, err
		}
	}
	n, err := c.read(path, arm)
	if errors.Is(err, core.ErrNoNode) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	stat := n.Stat
	return &stat, nil
}

// GetChildren lists a node's children. The list is served from the node's
// own metadata — one read, no scan (Section 4.2).
func (c *Client) GetChildren(path string) ([]string, error) {
	return c.GetChildrenW(path, nil)
}

// GetChildrenW is GetChildren with an optional one-shot child watch.
func (c *Client) GetChildrenW(path string, cb WatchCallback) ([]string, error) {
	if err := c.check(path); err != nil {
		return nil, err
	}
	var arm watchArm
	if cb != nil {
		var err error
		if arm, err = c.registerWatch(path, core.WatchChild, cb); err != nil {
			return nil, err
		}
	}
	n, err := c.read(path, arm)
	if err != nil {
		return nil, err
	}
	return n.SortedChildren(), nil
}

// watchArm is a watch the read that registered it arms: the registration's
// frontier for its watch type, and the client's entry for it (nil when the
// read arms nothing).
type watchArm struct {
	wt    core.WatchType
	front core.Frontier
	entry *watchEntry
}

// reached reports whether a fetch's result may arm the watch: a node whose
// mzxid — pzxid for a child watch — is at or past the frontier, or a store
// error, which the read returns as it is. On the shared root a child watch
// compares each shard's pzxid with the frontier's for that shard
// (core.Frontier.Pzxids): txids of two shards do not order. No node is past
// the frontier where the registration found none. Where it found one, the
// create may not be readable yet, or a delete may have followed: that fires
// a data or exists watch, whose delivery ends the wait (fetchArmed), but no
// child watch, which takes no node as it is.
func (a watchArm) reached(n *znode.Node, err error) bool {
	switch {
	case errors.Is(err, core.ErrUserNoNode):
		return !a.front.Exists || a.wt == core.WatchChild
	case err != nil:
		return true
	case a.wt == core.WatchChild:
		for s, z := range a.front.Pzxids {
			if s >= len(n.Pzxids) || n.Pzxids[s] < z {
				return false
			}
		}
		return n.Stat.Pzxid >= a.front.Zxid
	}
	return n.Stat.Mzxid >= a.front.Zxid
}

// frontierRetry spaces the re-reads of a watched read whose store has not
// reached the registration's frontier yet: the leader is flushing the change
// the registration found committed.
const frontierRetry = 2 * time.Millisecond

func (c *Client) registerWatch(path string, wt core.WatchType, cb WatchCallback) (watchArm, error) {
	wid, front, err := c.d.RegisterWatch(c.ctx, path, wt, c.id)
	if err != nil {
		return watchArm{}, err
	}
	arm := watchArm{wt: wt, front: front, entry: c.watches[wid]}
	if arm.entry != nil {
		// Same path+type watched twice: keep one entry, both callbacks via
		// chaining would complicate ordering; latest callback wins, as the
		// registration is idempotent server-side.
		arm.entry.cb = cb
		return arm, nil
	}
	arm.entry = &watchEntry{
		cb:        cb,
		delivered: sim.MakeFuture[core.Notification](c.d.K),
		path:      path,
		wt:        wt,
	}
	arm.entry.armMRD = append(arm.entry.armOne[:0], c.mrd...)
	c.watches[wid] = arm.entry
	return arm, nil
}

// read performs the storage read — through the cache tier when one is
// deployed — and applies the ordering gate. arm names the watch the read
// just registered, if any: the read re-reads until it reaches the
// registration's frontier (fetchArmed).
func (c *Client) read(path string, arm watchArm) (*znode.Node, error) {
	if c.closed {
		return nil, core.ErrSessionClosed
	}
	// FIFO: a read issued after a write cannot return before it.
	barrier := c.lastWrite
	if barrier != nil && !barrier.Done() {
		if _, ok := barrier.WaitTimeout(DefaultRequestTimeout); !ok {
			return nil, ErrTimeout
		}
	}
	var n *znode.Node
	var stamp []int64
	var err error
	if arm.entry == nil {
		n, stamp, err = c.fetch(path)
	} else {
		// A watch event follows the read that set the watch (ZooKeeper
		// answers the read first): callbacks wait until this read returns.
		c.arming++
		defer c.armed()
		n, stamp, err = c.fetchArmed(path, arm)
	}
	if errors.Is(err, core.ErrUserNoNode) {
		return nil, core.ErrNoNode
	}
	if err != nil {
		return nil, err
	}
	// Ordered notifications (Z4): if the node was committed while one of
	// *our* watches was still being delivered, hold the result until that
	// notification arrives. Updates older than the minting shard's MRD
	// are always safe (txids are totally ordered within a shard). Cached
	// entries carry the epoch stamp the
	// leader attached when it wrote this exact version, so the guard is
	// identical on every source.
	if n.Stat.Mzxid >= c.mrd[c.mintShard(n.Stat.Mzxid)] {
		for _, wid := range stamp {
			entry, mine := c.watches[wid]
			if !mine || entry.delivered.Done() {
				continue
			}
			if n.Stat.Mzxid <= entry.armMRD[c.mintShard(n.Stat.Mzxid)] {
				// Stale alias: this version's fire belonged to a previous
				// registration of the same watch id and was already
				// delivered before the current one was armed (see
				// watchEntry.armMRD).
				continue
			}
			if c.d.Armed(c.ctx, entry.path, entry.wt, c.id) {
				// Another registration's alias: a claim that fired ours for
				// a change at or below this version cleared it before the
				// version's flush, and it is still registered.
				continue
			}
			if _, ok := entry.delivered.WaitTimeout(DefaultRequestTimeout); !ok {
				return nil, ErrTimeout
			}
		}
	}
	if c.rcache != nil {
		c.see(path, n.Fresh())
	}
	return n, nil
}

// fetchArmed is fetch for a read that just registered a watch. A change
// committed before the registration landed may have been claimed without
// it, so a value older than that change would arm a watch the change never
// fires: the read re-reads until its result reaches the registration's
// frontier, or until the watch has fired — a claim that read the
// registration came after every claim that missed it, and the store holds
// the claimed change by its delivery. It gives up at DefaultRequestTimeout.
func (c *Client) fetchArmed(path string, arm watchArm) (*znode.Node, []int64, error) {
	deadline := c.d.K.Now() + sim.Time(DefaultRequestTimeout)
	for {
		fired := arm.entry.delivered.Done()
		n, stamp, err := c.fetch(path)
		if fired || arm.reached(n, err) {
			return n, stamp, err
		}
		if c.d.K.Now() >= deadline {
			return nil, nil, ErrTimeout
		}
		c.d.K.Sleep(frontierRetry)
	}
}

// armed ends a watched read: once none is in flight, the callbacks held
// behind it run, in notification order.
func (c *Client) armed() {
	if c.arming--; c.arming > 0 {
		return
	}
	for c.held.Len() > 0 {
		c.callbacks.Push(c.held.Pop())
	}
}

// fetch resolves a path to (node, epoch stamp). With the cache tier off it
// is exactly the paper's direct store read. With a cache it tries the
// regional node, then falls through to the strongly consistent store and
// refills the node. A cached entry is served only when it passes the
// session guard: at least as new as everything this session has observed
// for the path (Z3, read-your-writes) and as the owning shard's MRD — a
// delivered notification proves the shard reached that transaction, and a
// single ZooKeeper server would never answer from an older state (single
// system image). The Z4 epoch-stamp gate runs in read() on every source
// alike.
//
// A shared path — the root of a sharded deployment — is read from the
// store, as with the cache tier off. Several shards rebuild it, and the
// node's floors and freshness values are single txids, which order only
// within a shard: a node that lost its floors could admit a refill of a
// root older than a low-txid shard's rebuild and serve it, even to that
// create's own session.
func (c *Client) fetch(path string) (*znode.Node, []int64, error) {
	if c.rcache == nil || c.route.Shared(path) {
		return c.store.Read(c.ctx, path)
	}
	floor := max(c.seenFloor, c.lastSeen[path], c.mrd[c.route.ShardFor(path)])
	// Correctness needs no session-wide floor (seenFloor only stands in
	// for the folded paths' own): inside the serialized per-shard
	// distribution the leader installs each object into the regional node
	// right after its own store write, before the next one starts, and
	// invalidates a delete or an atomic batch before its store op. So the
	// node never runs ahead of the store and lags it by at most the one
	// object whose write is in flight: whatever it serves is what a direct
	// read issued just before that write landed could have returned, and
	// stale re-fills are floored out. The same path going backwards is
	// what the floor above rejects; cross-shard txids carry no order,
	// exactly as in the sharded write path. A written node's next read is
	// usually a hit here, and a miss below refills the node as the install
	// would.
	hit, mzxid, inc, ok := c.rcache.Probe(c.ctx, path)
	if ok && mzxid >= floor {
		if n, stamp, err := znode.Unmarshal(hit); err == nil {
			c.hits++
			return n, stamp, nil
		}
	}
	c.misses++
	n, stamp, err := c.store.Read(c.ctx, path)
	if err != nil {
		return nil, nil, err
	}
	blob := znode.Marshal(n, stamp)
	fresh := n.Fresh()
	// Refresh the regional node off the critical path (fire-and-forget,
	// as a real client would): the fill pays the cache node's write
	// latency without delaying this read, and the per-path floor rejects
	// it if an install or invalidation of a newer version arrives first.
	// It carries the probe's incarnation, so a node lost and restarted
	// since — its floors gone — rejects it too.
	rc, ctx := c.rcache, c.ctx
	c.d.K.Go("cache-fill-"+c.id, func() { rc.Refill(ctx, path, blob, fresh, inc) })
	return n, stamp, nil
}

// CacheStats reports this session's read-path cache effectiveness in the
// shape of a two-level tier: session-cache hits, which are always 0 (there
// is one cache tier, the regional node), hits served by the regional node,
// and reads that fell through to the user store (all zero with the cache
// tier off).
func (c *Client) CacheStats() (l1Hits, l2Hits, misses int64) {
	return 0, c.hits, c.misses
}

func (c *Client) check(path string) error {
	if c.closed {
		return core.ErrSessionClosed
	}
	return znode.ValidatePath(path)
}

// Close deregisters the session (removing its ephemeral nodes through the
// ordered write path) and stops the workers.
func (c *Client) Close() error {
	if c.closed {
		return nil
	}
	fut := c.submitWrite(core.OpDeregister, znode.Root, nil, -1, 0)
	_, err := c.await(fut)
	c.closed = true
	c.submitQ.Close()
	c.transport.ClientEnd.Close()
	c.d.ReleaseTransport(c.id)
	return err
}

// Crash simulates a client process dying: workers stop responding to
// heartbeats and the session is never deregistered — the scheduled
// heartbeat function must evict it (Section 3.6).
func (c *Client) Crash() {
	c.crashed = true
	c.closed = true
	c.submitQ.Close()
}

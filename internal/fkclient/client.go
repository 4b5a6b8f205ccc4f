// Package fkclient is the FaaSKeeper client library (Section 3.5),
// modeled after kazoo's API. Reads go straight to cloud storage; writes
// travel through the session's FIFO queue. Because the server-side event
// coordination of ZooKeeper is gone, the client runs three background
// workers — a request sender, a response receiver, and an orderer — that
// together enforce the session's FIFO order, deliver watch callbacks in
// order, and stall reads that would otherwise overtake an undelivered
// watch notification (epoch counters + MRD, Section 3.4).
package fkclient

import (
	"errors"
	"time"

	"faaskeeper/internal/cache"
	"faaskeeper/internal/cloud"
	"faaskeeper/internal/core"
	"faaskeeper/internal/obs"
	"faaskeeper/internal/shardmap"
	"faaskeeper/internal/sim"
	"faaskeeper/internal/txn"
	"faaskeeper/internal/watchfanout"
	"faaskeeper/internal/wire"
	"faaskeeper/internal/znode"
)

// ErrTimeout is returned when a request receives no response.
var ErrTimeout = errors.New("fkclient: request timed out")

// DefaultRequestTimeout bounds how long a write waits for its response.
const DefaultRequestTimeout = 60 * time.Second

// WatchCallback receives one-shot watch events.
type WatchCallback func(core.Notification)

// Client is one FaaSKeeper session.
type Client struct {
	d         *core.Deployment
	id        string
	ctx       cloud.Ctx
	store     core.UserStore
	transport *core.SessionTransport

	submitQ   *sim.Queue[*pendingOp]
	inbox     *sim.Queue[any]
	callbacks *sim.Queue[func()]

	nextSeq     int64
	outstanding []int64                 // unreleased write seqs, FIFO
	pending     map[int64]*pendingOp    // seq -> op
	buffered    map[int64]core.Response // responses held for FIFO release
	lastWrite   *sim.Future[core.Response]

	// mrd tracks, per write shard, the newest txid across delivered
	// notifications. Txids are only totally ordered within a shard, so the
	// read-ordering shortcut ("updates older than the MRD are always
	// safe") must compare against the owning shard's MRD; with one shard
	// this is exactly the paper's single MRD register.
	mrd          map[int]int64
	mrdMax       int64 // max across shards (informational)
	maxSeenMzxid int64 // newest data this session has observed (Z3)

	// Read-path cache tier (nil / unused when CacheMode is off, keeping
	// the direct path byte-for-byte the paper's). rcache is the shared
	// regional node, lcache the per-session client cache. lastSeen is the
	// per-path floor of the session guard: the newest transaction this
	// session has observed *for that path* — through reads or its own
	// write responses — refining maxSeenMzxid so one hot node doesn't
	// evict every colder path from cacheability while Z3's per-node
	// monotonicity still holds exactly.
	rcache   *cache.Regional
	lcache   *cache.LRU
	lastSeen map[string]int64

	// decoded memoizes the znode decoded from a client-cache entry, keyed
	// by path and guarded by the entry's mzxid, so a repeat L1 hit skips
	// the blob parse (see fetch). The memo keeps private copies — hits hand
	// out a shallow clone with copied Data.
	decoded map[string]decodedNode

	// smap is the session's cached view of the dynamic shard map (nil on
	// static deployments). The client uses it for per-shard MRD floor
	// lookups and shared-path cacheability, and refreshes it whenever a
	// response proves a newer epoch exists. A stale view is safe for the
	// floor lookups (they are conservative relative to the cloud-side
	// guards), but the shared-path cacheability decision needs bounded
	// freshness — a read-only session sees no responses — so sessions
	// with a client cache additionally re-read the map every CacheTTL
	// (smapAt), bounding a freshly split subtree root's client-cache
	// exposure to the same window every cached entry already has.
	smap   *shardmap.Map
	smapAt sim.Time
	// sysFloor is the newest transaction this session has observed
	// through any read (including a parent's pzxid — a child splice
	// advances system state without touching mzxid) or its own write
	// responses. It floors the client cache for cross-path monotonicity
	// (single system image); strictly stronger than maxSeenMzxid, which
	// keeps its public mzxid-only meaning.
	sysFloor int64
	l1Hits   int64
	l2Hits   int64
	l12Miss  int64

	watches map[int64]*watchEntry

	closed  bool
	crashed bool
}

type pendingOp struct {
	req  core.Request
	done *sim.Future[core.Response]
}

type watchEntry struct {
	wid       int64
	path      string
	wt        core.WatchType
	cb        WatchCallback
	delivered *sim.Future[core.Notification]

	// armMRD snapshots the per-shard MRD at registration time. A watch id
	// is a pure hash of (path, type), so a re-registration after a
	// delivered fire aliases the old id — and node versions stamped by
	// the *previous* registration's fire would otherwise block the Z4
	// epoch wait against the new entry forever (the canonical
	// read-then-re-arm pattern would wedge until an unrelated next
	// write). A version at or below the arm-time MRD of its minting shard
	// cannot have a notification in flight for this registration: any
	// transaction that fires the new watch queried the watch list after
	// the registration landed, hence commits — and mints its txid — after
	// every notification already delivered by then.
	armMRD map[int]int64

	// persistent marks a fan-out-tier addWatch registration: the entry
	// survives fires (delivered is re-armed after each one) and lastFired
	// tracks the newest delivered txid, which the read gate compares
	// against a fetched version under coalescing — a suppressed firing is
	// always covered by a delivered one with a larger txid.
	persistent bool
	lastFired  int64
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
		inbox:     sim.NewQueue[any](d.K),
		callbacks: sim.NewQueue[func()](d.K),
		pending:   map[int64]*pendingOp{},
		buffered:  map[int64]core.Response{},
		mrd:       map[int]int64{},
		watches:   map[int64]*watchEntry{},
	}
	if d.Dynamic() {
		c.smap = d.LoadShardMap(c.ctx)
		c.smapAt = d.K.Now()
	}
	if rc := d.CacheFor(region); rc != nil {
		c.rcache = rc
		c.lastSeen = map[string]int64{}
		if d.Cfg.CacheMode == core.CacheTwoLevel {
			c.lcache = cache.NewLRU(d.Cfg.ClientCacheCapacityB)
		}
	}
	if err := d.RegisterSession(c.ctx, id); err != nil {
		return nil, err
	}
	if c.lcache != nil && d.Cfg.WatchFanout {
		// Watch-set warm-up: a reconnecting session prefetches exactly
		// the paths its durable persistent-watch registrations name —
		// the paths it is about to read. One system-store read for the
		// set, one cache round trip for the entries. Safe for a fresh
		// session: an entry the regional node still holds is the path's
		// current committed state (push-invalidation), exactly what a
		// first direct read could return, and raising lastSeen only makes
		// later guard checks stricter.
		if paths := d.SessionWatchSet(c.ctx, id); len(paths) > 0 {
			for _, w := range c.rcache.WarmupPaths(c.ctx, paths) {
				if !c.l1Cacheable(w.Path) {
					continue
				}
				c.lcache.Put(w.Path, cache.Entry{Blob: w.Entry.Blob, Mzxid: w.Entry.Mzxid, FilledAt: d.K.Now()})
				if w.Entry.Mzxid > c.lastSeen[w.Path] {
					c.lastSeen[w.Path] = w.Entry.Mzxid
				}
			}
		}
	}
	d.K.Go("client-sender-"+id, c.senderLoop)
	d.K.Go("client-responder-"+id, c.responderLoop)
	d.K.Go("client-orderer-"+id, c.ordererLoop)
	d.K.Go("client-events-"+id, c.callbackLoop)
	return c, nil
}

// ID returns the session id.
func (c *Client) ID() string { return c.id }

// MRD returns the newest transaction id delivered through notifications
// (across all write shards).
func (c *Client) MRD() int64 { return c.mrdMax }

// MaxSeenMzxid returns the newest modification this session has read; it
// never decreases (single system image, Z3).
func (c *Client) MaxSeenMzxid() int64 { return c.maxSeenMzxid }

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
			op.done.TryComplete(core.Response{
				Session: c.id, Seq: op.req.Seq, Code: core.CodeSystemError,
			})
			// The request never reached the pipeline: close its chain here,
			// since no response will travel back through onResponse.
			c.traceFinish(op.req)
			continue
		}
		c.traceStage(op.req, obs.StageQueue)
	}
}

// responderLoop is worker 2: receive responses, notifications, and
// heartbeat pings from the session connection.
func (c *Client) responderLoop() {
	for {
		pkt, ok := c.transport.ClientEnd.Recv()
		if !ok {
			c.inbox.Close()
			return
		}
		if c.crashed {
			continue // a dead client reads nothing and answers nothing
		}
		switch v := pkt.Payload.(type) {
		case core.Ping:
			c.transport.ClientEnd.Send(core.Pong{Session: c.id, Nonce: v.Nonce}, 16)
		default:
			c.inbox.Push(pkt.Payload)
		}
	}
}

// ordererLoop is worker 3: release write responses in submission order and
// deliver watch notifications in arrival order, updating the MRD.
func (c *Client) ordererLoop() {
	for {
		m, ok := c.inbox.Pop()
		if !ok {
			c.callbacks.Close()
			return
		}
		switch v := m.(type) {
		case core.Response:
			c.onResponse(v)
		case core.Notification:
			c.onNotification(v)
		}
	}
}

// callbackLoop runs user watch callbacks outside the orderer, so a
// callback may itself issue reads and writes without deadlocking the
// session (the callbacks still run in notification order).
func (c *Client) callbackLoop() {
	for {
		fn, ok := c.callbacks.Pop()
		if !ok {
			return
		}
		fn()
	}
}

func (c *Client) onResponse(r core.Response) {
	if _, known := c.pending[r.Seq]; !known {
		return // duplicate (a retried batch re-answered): first wins
	}
	if _, dup := c.buffered[r.Seq]; dup {
		return
	}
	c.buffered[r.Seq] = r
	// Release responses strictly in submission order (FIFO, Z1/Z2).
	for len(c.outstanding) > 0 {
		head := c.outstanding[0]
		resp, ready := c.buffered[head]
		if !ready {
			return
		}
		delete(c.buffered, head)
		c.outstanding = c.outstanding[1:]
		op := c.pending[head]
		delete(c.pending, head)
		if resp.Code == core.CodeOK && resp.Stat.Mzxid > c.maxSeenMzxid {
			c.maxSeenMzxid = resp.Stat.Mzxid
		}
		if resp.Code == core.CodeOK {
			if len(resp.MultiResults) > 0 {
				c.noteOwnMulti(resp.MultiResults)
			} else {
				c.noteOwnWrite(op.req.Op, resp)
			}
		}
		c.refreshMap(resp.MapEpoch)
		op.done.TryComplete(resp)
		c.traceFinish(op.req)
	}
}

// noteOwnWrite raises the session's per-path cache floors after one of its
// writes commits, so read-your-writes holds through the cache tier: the
// node itself, and — for creates and deletes — its parent, whose child
// list changed under the same transaction.
func (c *Client) noteOwnWrite(op core.OpCode, resp core.Response) {
	if c.rcache == nil || op == core.OpDeregister {
		return
	}
	if resp.Txid > c.sysFloor {
		c.sysFloor = resp.Txid
	}
	if resp.Txid > c.lastSeen[resp.Path] {
		c.lastSeen[resp.Path] = resp.Txid
	}
	if op == core.OpCreate || op == core.OpDelete {
		parent := znode.Parent(resp.Path)
		if resp.Txid > c.lastSeen[parent] {
			c.lastSeen[parent] = resp.Txid
		}
		// Defensively drop the cached parent copy, whose child list this
		// write superseded. For non-root parents the floors above already
		// fence it (parent and child share a shard, so txids order the
		// rebuilds), and the sharded root never enters the client cache
		// at all (l1Cacheable) — the removal just keeps the invariant
		// local and unconditional.
		if c.lcache != nil {
			c.lcache.Remove(parent)
		}
	}
}

// noteOwnMulti raises the session's floors for every sub-operation of a
// committed multi(): the same read-your-writes bookkeeping noteOwnWrite
// performs per single op, including the parents whose child lists the
// transaction's creates and deletes rewrote.
func (c *Client) noteOwnMulti(results []txn.Result) {
	for _, r := range results {
		if r.Code != txn.CodeOK || r.Txid == 0 {
			continue
		}
		if r.Stat.Mzxid > c.maxSeenMzxid {
			c.maxSeenMzxid = r.Stat.Mzxid
		}
		if c.rcache == nil {
			continue
		}
		if r.Txid > c.sysFloor {
			c.sysFloor = r.Txid
		}
		if r.Txid > c.lastSeen[r.Path] {
			c.lastSeen[r.Path] = r.Txid
		}
		if r.Type == txn.OpCreate || r.Type == txn.OpDelete {
			parent := znode.Parent(r.Path)
			if r.Txid > c.lastSeen[parent] {
				c.lastSeen[parent] = r.Txid
			}
			if c.lcache != nil {
				c.lcache.Remove(parent)
			}
		}
		if c.lcache != nil {
			// The transaction superseded any session-local copy.
			c.lcache.Remove(r.Path)
		}
	}
}

// routeOf returns the shard currently owning a path's writes under the
// session's cached map view (the static route otherwise).
func (c *Client) routeOf(path string) int {
	if c.smap != nil {
		return c.smap.ShardFor(path)
	}
	return core.ShardOf(path, c.d.NumShards())
}

// mintShard recovers the shard that minted a txid — stable across map
// epochs on a dynamic deployment (the fixed stride), the mod-N interleave
// otherwise. Keying MRD floors by minting shard is what lets them survive
// a path changing shards: old data checks against the old shard's floor.
func (c *Client) mintShard(txid int64) int {
	if c.smap != nil {
		return shardmap.ShardOfTxid(txid)
	}
	return int(txid % int64(c.d.NumShards()))
}

// refreshMap reloads the session's map view when a response proves a
// newer epoch exists.
func (c *Client) refreshMap(epoch int64) {
	if c.smap == nil || epoch <= c.smap.Epoch {
		return
	}
	if m := c.d.LoadShardMap(c.ctx); m != nil {
		c.smap = m
		c.smapAt = c.d.K.Now()
	}
}

// refreshMapTTL re-reads the map once per CacheTTL for sessions whose
// client cache depends on shared-path classification (see smap).
func (c *Client) refreshMapTTL() {
	if c.smap == nil || c.lcache == nil || c.d.K.Now()-c.smapAt <= core.CacheTTL {
		return
	}
	if m := c.d.LoadShardMap(c.ctx); m != nil {
		c.smap = m
	}
	c.smapAt = c.d.K.Now()
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
	if n.Txid > c.mrdMax {
		c.mrdMax = n.Txid
	}
	// The notified path's client-cache copy predates the event; drop it
	// eagerly (the shard-MRD floor just raised above would reject it
	// anyway — this only saves the dead lookup).
	if c.lcache != nil {
		c.lcache.Remove(n.Path)
	}
	entry, ok := c.watches[n.WatchID]
	if !ok {
		return
	}
	if entry.persistent {
		// Persistent (ZooKeeper 3.6 addWatch): no re-arm, the entry
		// stays. Wake the current fire's waiters and arm a fresh future
		// for the next one.
		if n.Txid > entry.lastFired {
			entry.lastFired = n.Txid
		}
		entry.delivered.TryComplete(n)
		entry.delivered = sim.NewFuture[core.Notification](c.d.K)
	} else {
		delete(c.watches, n.WatchID) // one-shot, as in ZooKeeper
		entry.delivered.TryComplete(n)
	}
	if cb := entry.cb; cb != nil {
		c.callbacks.Push(func() { cb(n) })
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
		done: sim.NewFuture[core.Response](c.d.K),
	}
	c.pending[seq] = p
	c.outstanding = append(c.outstanding, seq)
	c.lastWrite = p.done
	c.traceStart(p.req)
	c.submitQ.Push(p)
	return p.done
}

func (c *Client) await(f *sim.Future[core.Response]) (core.Response, error) {
	resp, ok := f.WaitTimeout(DefaultRequestTimeout)
	if !ok {
		return core.Response{}, ErrTimeout
	}
	return resp, core.CodeError(resp.Code)
}

// Create creates a node and returns its final path (which differs from the
// requested path for sequential nodes).
func (c *Client) Create(path string, data []byte, flags znode.Flags) (string, error) {
	if err := c.check(path); err != nil {
		return "", err
	}
	if len(data) > core.MaxNodeB {
		return "", core.ErrTooLarge
	}
	resp, err := c.await(c.submitWrite(core.OpCreate, path, data, -1, flags))
	if err != nil {
		return "", err
	}
	return resp.Path, nil
}

// SetData replaces a node's data; version -1 matches any version.
func (c *Client) SetData(path string, data []byte, version int32) (znode.Stat, error) {
	if err := c.check(path); err != nil {
		return znode.Stat{}, err
	}
	if len(data) > core.MaxNodeB {
		return znode.Stat{}, core.ErrTooLarge
	}
	resp, err := c.await(c.submitWrite(core.OpSetData, path, data, version, 0))
	return resp.Stat, err
}

// Delete removes a node; version -1 matches any version.
func (c *Client) Delete(path string, version int32) error {
	if err := c.check(path); err != nil {
		return err
	}
	_, err := c.await(c.submitWrite(core.OpDelete, path, nil, version, 0))
	return err
}

// Multi submits a ZooKeeper-style transaction: all ops commit atomically
// or none do (create/set_data/delete/check, built with txn.Create,
// txn.SetData, txn.Delete, txn.Check). Ops confined to one write shard
// take a fast path through the leader pipeline; ops spanning shards run
// the two-phase commit coordinator (package txn). The per-op results are
// returned even on a rollback, where the failing op carries its own code
// and its siblings report txn.CodeAborted.
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
	c.nextSeq++
	seq := c.nextSeq
	p := &pendingOp{
		req: core.Request{
			Session: c.id, Seq: seq, Op: core.OpMulti,
			Path: ops[0].Path, Data: txn.EncodeOps(ops),
		},
		done: sim.NewFuture[core.Response](c.d.K),
	}
	c.pending[seq] = p
	c.outstanding = append(c.outstanding, seq)
	c.lastWrite = p.done
	c.traceStart(p.req)
	c.submitQ.Push(p)
	resp, err := c.await(p.done)
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
	if cb != nil {
		if err := c.registerWatch(path, core.WatchData, cb); err != nil {
			return nil, znode.Stat{}, err
		}
	}
	n, err := c.read(path, cb != nil)
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
	if cb != nil {
		if err := c.registerWatch(path, core.WatchExists, cb); err != nil {
			return nil, err
		}
	}
	n, err := c.read(path, cb != nil)
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
	if cb != nil {
		if err := c.registerWatch(path, core.WatchChild, cb); err != nil {
			return nil, err
		}
	}
	n, err := c.read(path, cb != nil)
	if err != nil {
		return nil, err
	}
	return n.SortedChildren(), nil
}

func (c *Client) registerWatch(path string, wt core.WatchType, cb WatchCallback) error {
	wid, err := c.d.RegisterWatch(c.ctx, path, wt, c.id)
	if err != nil {
		return err
	}
	if _, exists := c.watches[wid]; exists {
		// Same path+type watched twice: keep one entry, both callbacks via
		// chaining would complicate ordering; latest callback wins, as the
		// registration is idempotent server-side.
		c.watches[wid].cb = cb
		return nil
	}
	armMRD := make(map[int]int64, len(c.mrd))
	for shard, txid := range c.mrd {
		armMRD[shard] = txid
	}
	c.watches[wid] = &watchEntry{
		wid: wid, path: path, wt: wt, cb: cb,
		delivered: sim.NewFuture[core.Notification](c.d.K),
		armMRD:    armMRD,
	}
	return nil
}

// WatchOptions configures a persistent (fan-out tier) watch.
type WatchOptions struct {
	// Recursive watches the whole subtree rooted at the path (ZooKeeper
	// 3.6 PERSISTENT_RECURSIVE): data and node lifecycle events fire for
	// every descendant, no ChildrenChanged events.
	Recursive bool
	// Policy paces deliveries at the regional node: PolicyImmediate (one
	// delivery per write), PolicyCoalesce (latest-wins inside the node's
	// debounce window — the recommended default for config watches), or
	// PolicyInterval (confd-style batching on Interval).
	Policy watchfanout.Policy
	// Interval is the PolicyInterval batching window.
	Interval time.Duration
}

// AddWatch registers a persistent watch on path (ZooKeeper 3.6 addWatch)
// and returns its watch id. The watch fires on every matching change
// without re-arming; cb runs on the client's callback worker for each
// delivered notification. Requires a deployment with Config.WatchFanout.
func (c *Client) AddWatch(path string, opts WatchOptions, cb WatchCallback) (int64, error) {
	if c.closed {
		return 0, core.ErrSessionClosed
	}
	wid, err := c.d.AddWatch(c.ctx, path, opts.Recursive, opts.Policy, opts.Interval, c.id)
	if err != nil {
		return 0, err
	}
	if e, exists := c.watches[wid]; exists {
		e.cb = cb // re-registration: latest callback wins, like registerWatch
		return wid, nil
	}
	wt := core.WatchPersistent
	if opts.Recursive {
		wt = core.WatchPersistentRecursive
	}
	armMRD := make(map[int]int64, len(c.mrd))
	for shard, txid := range c.mrd {
		armMRD[shard] = txid
	}
	c.watches[wid] = &watchEntry{
		wid: wid, path: path, wt: wt, cb: cb,
		delivered:  sim.NewFuture[core.Notification](c.d.K),
		armMRD:     armMRD,
		persistent: true,
	}
	return wid, nil
}

// awaitPersistentFire holds a read that fetched version mzxid of a path
// covered by one of the session's persistent watches until that
// version's notification — or a covering newer one — has been delivered
// (Z4). Coalescing may be holding the firing in an open debounce slot,
// so each round kicks the regional node (forcing the slot to flush and
// marking unreleased firings urgent) before waiting. The attempts are
// bounded: after a fan-out node loss the notification may legitimately
// never come (the lost-watch guarantee is bounded exactly like the
// legacy tier's), and a persistent watch must not wedge every subsequent
// read of the path.
func (c *Client) awaitPersistentFire(entry *watchEntry, mzxid int64) {
	for attempts := 0; entry.lastFired < mzxid && attempts < 4; attempts++ {
		f := entry.delivered // capture before the kick's round trip
		if c.d.FanoutKick(c.ctx, entry.wid) >= mzxid {
			// Delivered node-side; our own copy is in flight — fall
			// through and wait for it to land locally.
		}
		if entry.lastFired >= mzxid {
			return
		}
		_, _ = f.WaitTimeout(DefaultRequestTimeout / 4)
	}
}

// read performs the storage read — through the cache tier when one is
// deployed — and applies the ordering gate. watching marks a read that
// just registered a watch and therefore bypasses the client cache.
func (c *Client) read(path string, watching bool) (*znode.Node, error) {
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
	n, stamp, err := c.fetch(path, watching)
	if errors.Is(err, core.ErrUserNoNode) {
		return nil, core.ErrNoNode
	}
	if err != nil {
		return nil, err
	}
	// Ordered notifications (Z4): if the node was committed while one of
	// *our* watches was still being delivered, hold the result until that
	// notification arrives. Updates older than the minting shard's MRD
	// are always safe (txids are totally ordered within a shard; the
	// minting shard is the path's owner at write time, so the comparison
	// survives live resharding). Cached entries carry the epoch stamp the
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
			if entry.persistent {
				c.awaitPersistentFire(entry, n.Stat.Mzxid)
				continue
			}
			if _, ok := entry.delivered.WaitTimeout(DefaultRequestTimeout); !ok {
				return nil, ErrTimeout
			}
		}
	}
	if n.Stat.Mzxid > c.maxSeenMzxid {
		c.maxSeenMzxid = n.Stat.Mzxid
	}
	if c.rcache != nil {
		f := nodeFresh(n)
		if f > c.lastSeen[path] {
			c.lastSeen[path] = f
		}
		if f > c.sysFloor {
			c.sysFloor = f
		}
	}
	return n, nil
}

// nodeFresh is the newest transaction reflected in a node's user-store
// object: its mzxid, raised to its pzxid — child-list rebuilds replace the
// object without touching the node's own mzxid.
func nodeFresh(n *znode.Node) int64 {
	if n.Stat.Pzxid > n.Stat.Mzxid {
		return n.Stat.Pzxid
	}
	return n.Stat.Mzxid
}

// fetch resolves a path to (node, epoch stamp). With the cache tier off it
// is exactly the paper's direct store read. With a cache it tries the
// client cache, then the regional node, then falls through to the strongly
// consistent store and refreshes both levels. A cached entry is served
// only when it passes the session guard: at least as new as everything
// this session has observed for the path (Z3, read-your-writes) and as
// the owning shard's MRD — a delivered notification proves the shard
// reached that transaction, and a single ZooKeeper server would never
// answer from an older state (single system image). The Z4 epoch-stamp
// gate runs in read() on every source alike.
// Reads that just armed a watch (skipL1) bypass the client cache: the
// registration took effect against the server's CURRENT state, so a
// change between a stale session-local copy and the registration would
// never fire the watch — the canonical read-then-wait-on-watch pattern
// would hold the stale value indefinitely. The regional node stays in
// play: it is push-invalidated before every write becomes readable, so
// its entry is the committed state as of registration.
func (c *Client) fetch(path string, skipL1 bool) (*znode.Node, []int64, error) {
	if c.rcache == nil {
		return c.store.Read(c.ctx, path)
	}
	c.refreshMapTTL()
	floor := c.lastSeen[path]
	if m := c.mrd[c.routeOf(path)]; m > floor {
		floor = m
	}
	if c.lcache != nil && !skipL1 && c.l1Cacheable(path) {
		// The client cache additionally floors on sysFloor: nothing
		// invalidates session-local copies, so cross-path monotonicity
		// (single system image — a client never observes an older system
		// state than it has already seen) needs the session-wide floor
		// here. A cold path's copy that fails it is simply re-fetched
		// from the regional node, which serves it safely (see below).
		l1Floor := floor
		if c.sysFloor > l1Floor {
			l1Floor = c.sysFloor
		}
		if c.smap != nil && c.mrdMax > l1Floor {
			// Live resharding breaks the static identity between a path's
			// route and the shard that minted its cached copy: a
			// notification from the path's former owner raises only that
			// shard's MRD, which the route-keyed floor above no longer
			// consults after a migration. Nothing invalidates
			// session-local copies, so on a dynamic deployment the client
			// cache floors on the session-wide MRD — any delivered
			// notification fences every older local entry. (The regional
			// node needs no such floor: it is push-invalidated before any
			// superseding write becomes readable, on whichever shard.)
			l1Floor = c.mrdMax
		}
		if e, ok := c.lcache.Get(path); ok && e.Mzxid >= l1Floor &&
			c.d.K.Now()-e.FilledAt <= core.CacheTTL {
			if n, stamp, ok := c.memoHit(path, e.Mzxid); ok {
				c.l1Hits++
				return n, stamp, nil
			}
			if n, stamp, err := znode.Unmarshal(e.Blob); err == nil {
				c.memoize(path, e.Mzxid, n, stamp)
				c.l1Hits++
				return n, stamp, nil
			}
		}
	}
	// The regional node needs no maxSeenMzxid floor: the leader publishes
	// each invalidation before the store write inside its serialized
	// per-shard distribution, so by the time any transaction's effect is
	// readable, every entry it superseded on that shard is already gone
	// and stale re-fills are floored out — an entry the node still holds
	// is the path's current committed state as of everything this session
	// can have observed on the shard (cross-shard txids carry no order,
	// exactly as in the sharded write path).
	if blob, mzxid, ok := c.rcache.Lookup(c.ctx, path); ok && mzxid >= floor {
		if n, stamp, err := znode.Unmarshal(blob); err == nil {
			c.l1Fill(path, blob, mzxid)
			c.l2Hits++
			return n, stamp, nil
		}
	}
	c.l12Miss++
	n, stamp, err := c.store.Read(c.ctx, path)
	if err != nil {
		if c.lcache != nil {
			// Notably ErrUserNoNode: drop any lingering copy of a node
			// the store no longer has.
			c.lcache.Remove(path)
		}
		return nil, nil, err
	}
	blob := znode.Marshal(n, stamp)
	fresh := nodeFresh(n)
	c.l1Fill(path, blob, fresh)
	// Refresh the regional node off the critical path (fire-and-forget,
	// as a real client would): the fill pays the cache node's write
	// latency without delaying this read, and the per-path floor rejects
	// it if an invalidation for a newer version arrives first.
	rc, ctx := c.rcache, c.ctx
	c.d.K.Go("cache-fill-"+c.id, func() { rc.Fill(ctx, path, blob, fresh) })
	return n, stamp, nil
}

// l1Cacheable reports whether a path may live in the client cache. Shared
// paths — the root of a sharded deployment, the root node of a split
// subtree — may not: they are rebuilt by several shard leaders, so two
// successive contents can share one freshness value and no session-local
// floor can order them. The regional node handles them safely — every
// rebuild strictly raises its invalidation floor there.
func (c *Client) l1Cacheable(path string) bool {
	if c.smap != nil {
		return !c.smap.Shared(path)
	}
	return path != znode.Root || c.d.NumShards() == 1
}

// decodedNode is one memoized client-cache decode (see Client.decoded).
type decodedNode struct {
	mzxid int64
	node  *znode.Node
	stamp []int64
}

// memoCap bounds the decode memo; on overflow the whole map is dropped
// (the client cache's own LRU keeps the hot set small, so an overflow
// means pathologically many cold paths — restart cheaply).
const memoCap = 4096

// memoHit returns a private-copy-backed node for a client-cache entry
// whose decode this session already performed at the same mzxid. The
// handed-out node shallow-clones the memo with its own Data slice, since
// Data is the one field callers may mutate (GetDataW exposes it).
func (c *Client) memoHit(path string, mzxid int64) (*znode.Node, []int64, bool) {
	dn, ok := c.decoded[path]
	if !ok || dn.mzxid != mzxid {
		return nil, nil, false
	}
	out := *dn.node
	out.Data = append([]byte(nil), dn.node.Data...)
	return &out, dn.stamp, true
}

// memoize records a freshly decoded client-cache entry under its mzxid.
// The memo clones the node so the caller may hand the original to the
// application.
func (c *Client) memoize(path string, mzxid int64, n *znode.Node, stamp []int64) {
	if c.decoded == nil || len(c.decoded) >= memoCap {
		c.decoded = map[string]decodedNode{}
	}
	c.decoded[path] = decodedNode{mzxid: mzxid, node: n.Clone(), stamp: stamp}
}

// l1Fill stores a blob in the client cache (two-level mode only).
func (c *Client) l1Fill(path string, blob []byte, mzxid int64) {
	if c.lcache == nil || !c.l1Cacheable(path) {
		return
	}
	c.lcache.Put(path, cache.Entry{Blob: blob, Mzxid: mzxid, FilledAt: c.d.K.Now()})
}

// CacheStats reports this session's read-path cache effectiveness: hits
// served by the client cache, hits served by the regional node, and reads
// that fell through to the user store (all zero with the cache tier off).
func (c *Client) CacheStats() (l1Hits, l2Hits, misses int64) {
	return c.l1Hits, c.l2Hits, c.l12Miss
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

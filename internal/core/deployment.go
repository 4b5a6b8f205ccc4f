package core

import (
	"fmt"
	"time"

	"faaskeeper/internal/cache"
	"faaskeeper/internal/cloud"
	"faaskeeper/internal/cloud/faas"
	"faaskeeper/internal/cloud/kv"
	"faaskeeper/internal/cloud/network"
	"faaskeeper/internal/cloud/queue"
	"faaskeeper/internal/fksync"
	"faaskeeper/internal/obs"
	"faaskeeper/internal/shardmap"
	"faaskeeper/internal/sim"
	"faaskeeper/internal/stats"
	"faaskeeper/internal/txn"
	"faaskeeper/internal/watchfanout"
	"faaskeeper/internal/znode"
)

// CacheMode selects the read-path cache tier in front of the user store.
type CacheMode string

// Cache tiers. With CacheOff (the default) the read path is byte-for-byte
// the paper's direct store access.
const (
	CacheOff      CacheMode = ""          // no cache: reads hit the user store directly
	CacheRegional CacheMode = "regional"  // shared per-region cache node only
	CacheTwoLevel CacheMode = "two-level" // per-session client cache + regional node
)

// Function names deployed by FaaSKeeper (Section 3: four functions).
const (
	FnFollower  = "follower"
	FnLeader    = "leader"
	FnWatch     = "watch"
	FnHeartbeat = "heartbeat"
)

// Facts of the deployment that no caller varies.
const (
	// MaxNodeB caps node data: the paper's AWS limit, from SQS message
	// sizing (Section 4.4).
	MaxNodeB = 250 * 1024

	// CacheTTL bounds client-cache staleness: an entry older than this is
	// refetched, which keeps ZooKeeper's timeliness guarantee for a session
	// that never observes newer state. The regional node needs no TTL — the
	// leader push-invalidates it.
	CacheTTL = 5 * time.Second

	hybridThresholdB = 4096                    // hybrid store's KV/object split point
	watchMemMB       = 512                     // watch function memory
	lockLease        = 2 * time.Second         // timed-lock lease
	heartbeatTimeout = 1500 * time.Millisecond // client's heartbeat reply deadline
	costBudgetWindow = time.Second             // burn-rate evaluation window (virtual time)
)

// Config selects the deployment's provider profile, storage backends, and
// function resources. It is also the public faaskeeper.DeploymentOptions;
// README's "Configuration" table lists every field with its default and
// who sets it.
type Config struct {
	Profile   *cloud.Profile // default: cloud.AWSProfile()
	UserStore StoreKind      // default: StoreObject (the paper's base AWS setup)

	// ExtraRegions adds user-store replicas the leader updates in parallel.
	ExtraRegions []cloud.Region

	FollowerMemMB  int // default 2048
	LeaderMemMB    int // default 2048
	HeartbeatMemMB int // default 512
	Arch           faas.Arch
	VCPU           float64

	HeartbeatEvery time.Duration // 0 disables the scheduled function
	Retries        int           // event-function retry budget (default 2)

	// WriteShards partitions the leader pipeline by znode subtree: N
	// ordered queues, each with one serialized leader instance and its own
	// epoch counters. Default 1 — the paper's single totally-ordered
	// write path. See ShardOf for the routing function.
	WriteShards int

	// DynamicShards replaces the fixed mod-N route with the durable
	// epoch-versioned routing table of package shardmap, enabling live
	// resharding: GrowShards/ShrinkShards move consistent-hash slots to
	// added or retired queues, SplitSubtree re-routes a hot subtree at
	// depth 2, and MergeSubtree folds it back — all without stopping the
	// pipeline (reshard.go). Dynamic mode stamps each write's commit with
	// the routed shard's map generation, so a write racing a reshard is
	// rejected by its own conditional commit and retried against the new
	// map. Default false: the static pipeline, byte-identical to the
	// golden trace.
	DynamicShards bool

	// BatchWrites lets one distributor flush fold several queued messages
	// (distributor.go): within a chunk only the final state of each
	// touched node is written to the user stores, every parent gets one
	// child-list read-modify-write, and the regional caches get one
	// coalesced invalidation record. Every per-operation invariant is
	// preserved: each client still receives its own Stat with its own
	// txid, watch payloads carry the firing operation's txid, and epoch
	// entries precede readability of the chunk's writes (Z4). Default
	// false ≡ chunks of one message — the paper's one-write-per-message
	// distribution, byte-identical to the golden trace. defaults() turns
	// false into MaxBatch = 1; nothing else reads this field.
	BatchWrites bool

	// MaxBatch caps how many queued messages one distributor flush may
	// fold (0 = the whole invocation batch, itself bounded by the queue
	// technology's receive limit). Forced to 1 unless BatchWrites.
	MaxBatch int

	// CacheMode enables the read-path cache tier (package cache): a
	// shared regional cache node fronting each region's user store,
	// optionally combined with a per-session client cache. The leader
	// push-invalidates the regional node on every user-store write, and
	// clients apply the direct path's Z3/Z4 guards before serving a
	// cached entry. Default CacheOff — the paper's direct read path.
	CacheMode CacheMode

	// CacheCapacityB sizes each regional cache node (default 64 MB).
	CacheCapacityB int

	// ClientCacheCapacityB sizes each session's client cache in
	// CacheTwoLevel mode (default 256 kB).
	ClientCacheCapacityB int

	// WatchFanout enables the hierarchical watch fan-out tier (package
	// watchfanout): instead of enumerating watching sessions inside the
	// write hot path, the leader publishes ONE notification record per
	// (path, txid) to each region's fan-out node — colocated with the
	// regional cache — and the node owns the per-session delivery with
	// per-watch debounce/coalesce policies, plus ZooKeeper 3.6-style
	// persistent and recursive watches (Deployment.AddWatch). Watch
	// registration and matching move off the system store entirely, so
	// the leader's per-write watch work is O(1) in watcher count. The
	// epoch-stamp read gate (Z4) is preserved: a watch id enters the
	// shard epoch list when its first firing is published and leaves when
	// its last in-flight firing is delivered or coalesced into a newer
	// one. Default false — the paper's per-watcher delivery path,
	// byte-identical to the golden trace.
	WatchFanout bool

	// FanoutDebounce is the latest-wins coalescing window applied by
	// fan-out nodes to PolicyCoalesce registrations (default 10ms). Only
	// meaningful with WatchFanout.
	FanoutDebounce time.Duration

	// WireCodec is inert: package wire's binary codec is the only wire
	// format. The field survives, validated by name ("" and "binary" are
	// accepted and equivalent, anything else panics), because the frozen
	// bench presets still set it; nothing reads it after validation.
	WireCodec string

	// Telemetry enables the virtual-time telemetry subsystem (package
	// obs): causal per-request span trees across the whole pipeline and
	// hot-path counters/histograms in the metrics registry — among them
	// the per-phase latencies of Figures 9-12 and Table 3
	// (Deployment.Phase). Trace ids are
	// derived from (Session, Seq) and always written, so message sizes —
	// and therefore the golden virtual-time trace — do not depend on this
	// flag, and with Telemetry off every instrumentation point is a
	// zero-allocation no-op. Default false. (Registry gauges — the cost
	// mirror, cache statistics — function regardless of this flag.)
	Telemetry bool

	// CostAccounting enables per-request dollar attribution (package obs
	// cost ledger): every pay-as-you-go charge a request causes — function
	// GB-s, store read/write units, queue deliveries, cache hits, watch
	// pushes, 2PC legs — is billed to its trace at the instant the charge
	// occurs, and mirrored into the registry's cost gauges. Works with or
	// without Telemetry (spans only carry per-stage costs when both are
	// on). Default false: every attribution point is a nil-sink no-op and
	// the golden virtual-time trace is byte-identical.
	CostAccounting bool

	// CostBudgetUSDPerHour arms the ledger's burn-rate monitor: spend is
	// evaluated over tumbling one-second windows of virtual time and a
	// window exceeding this hourly rate emits a breach gauge and an
	// instant "cost.breach" span. 0 disarms (the default).
	CostBudgetUSDPerHour float64
}

func (c *Config) defaults() {
	if c.Profile == nil {
		c.Profile = cloud.AWSProfile()
	}
	if c.UserStore == "" {
		c.UserStore = StoreObject
	}
	if err := c.UserStore.Validate(); err != nil {
		// A typo must not silently deploy (and measure) the object store.
		panic("core: " + err.Error())
	}
	if c.FollowerMemMB <= 0 {
		c.FollowerMemMB = 2048
	}
	if c.LeaderMemMB <= 0 {
		c.LeaderMemMB = 2048
	}
	if c.HeartbeatMemMB <= 0 {
		c.HeartbeatMemMB = 512
	}
	if c.Retries == 0 {
		c.Retries = 2
	}
	if c.WriteShards <= 0 {
		c.WriteShards = 1
	}
	if c.DynamicShards && c.WriteShards > shardmap.MaxShards {
		panic("core: DynamicShards supports at most 64 write shards")
	}
	if c.MaxBatch < 0 {
		c.MaxBatch = 0
	}
	if !c.BatchWrites {
		c.MaxBatch = 1
	}
	switch c.CacheMode {
	case "off":
		c.CacheMode = CacheOff
	case CacheOff, CacheRegional, CacheTwoLevel:
	default:
		// A typo must not silently deploy the wrong tier (an unknown
		// string would otherwise enable the regional cache).
		panic("core: unknown CacheMode " + string(c.CacheMode))
	}
	// CacheCapacityB's 64 MB default is owned by cache.NewRegional (<= 0
	// passes through).
	if c.ClientCacheCapacityB <= 0 {
		c.ClientCacheCapacityB = 256 << 10
	}
	if c.FanoutDebounce <= 0 {
		c.FanoutDebounce = 10 * time.Millisecond
	}
	if c.WireCodec != "" && c.WireCodec != "binary" {
		// A caller asking for a format that no longer exists ("gob") must
		// not silently get another one.
		panic(fmt.Sprintf("core: unknown WireCodec %q (the only wire format is \"binary\")", c.WireCodec))
	}
}

// Deployment is one running FaaSKeeper instance: storage, queues,
// functions, and the registry of connected sessions.
type Deployment struct {
	K        *sim.Kernel
	Env      *cloud.Env
	Platform *faas.Platform
	Cfg      Config

	System *kv.Table
	Locks  *fksync.LockManager
	Stores []UserStore // [0] is the home-region primary
	// flushProcs names each store's regional flush process
	// ("leader-update-<region>", aligned with Stores), built once: every
	// flush spawns one per region.
	flushProcs []string

	// Txns manages the durable transaction records of multi()
	// coordinators (package txn). Always non-nil; it touches the system
	// store only when a multi() runs or a reshard checks for live ones.
	Txns *txn.Store

	// Obs is the telemetry hub: the request tracer and the component
	// metrics registry. Always non-nil; the tracer and the registry's
	// hot-path instruments record only when Cfg.Telemetry is set, while
	// gauges (the cost mirror, cache statistics) always work.
	Obs *obs.Hub

	// Caches holds one regional cache node per user store (aligned with
	// Stores); empty when CacheMode is CacheOff.
	Caches []*cache.Regional

	// Fanouts holds one watch fan-out node per user store (aligned with
	// Stores); empty unless Cfg.WatchFanout.
	Fanouts []*watchfanout.Node

	// LeaderQs holds one ordered queue per write shard; LeaderQs[s] feeds
	// shard s's serialized leader instance. A single-shard deployment has
	// exactly the paper's one global queue. A dynamic deployment appends
	// queues at runtime as the shard map grows.
	LeaderQs []*queue.Queue

	// dyn is the dynamic-sharding state (nil on static deployments; see
	// dynShards in shard.go).
	dyn *dynShards

	// txnWatchBatches / txnWatchDeliveries count the cross-shard
	// transaction watch pipeline: deliveries are individual watch-function
	// invocations, batches the per-shard post-apply groups that carried
	// them (one epoch-exit write per region per batch).
	txnWatchBatches    int64
	txnWatchDeliveries int64

	sessions map[string]*SessionTransport

	// lastSeq is the warm-sandbox deduplication cache: each session's
	// queue has exactly one concurrent follower instance, so remembering
	// the last processed sequence number in sandbox state suffices to make
	// queue-retry redelivery idempotent.
	lastSeq map[string]int64
}

// SessionTransport is the cloud-side plumbing of one client session: its
// request queue and the duplex connection used for responses,
// notifications, and heartbeats.
type SessionTransport struct {
	ID        string
	Region    cloud.Region
	Queue     *queue.Queue
	ClientEnd *network.End // client side: receive responses / notifications
	cloudEnd  *network.End
	pongs     *sim.Queue[Pong]
	closed    bool
}

// NewDeployment builds a FaaSKeeper deployment on kernel k. It deploys the
// four functions, wires the leader queue trigger, schedules the heartbeat,
// and seeds the tree root.
func NewDeployment(k *sim.Kernel, cfg Config) *Deployment {
	cfg.defaults()
	env := cloud.NewEnv(k, cfg.Profile)
	d := &Deployment{
		K:        k,
		Env:      env,
		Platform: faas.NewPlatform(env),
		Cfg:      cfg,
		System:   kv.NewTable(env, "system"),
		sessions: map[string]*SessionTransport{},
		lastSeq:  map[string]int64{},
	}
	d.Obs = obs.NewHub(k, cfg.Telemetry, cfg.CostAccounting)
	if cfg.CostBudgetUSDPerHour > 0 {
		d.Obs.Cost.SetBudget(obs.Budget{
			USDPerHour: cfg.CostBudgetUSDPerHour,
			Window:     costBudgetWindow,
		})
	}
	d.System.SetCostCategory("syskv")
	d.Locks = fksync.NewLockManager(env, d.System, lockLease)
	d.Txns = txn.NewStore(d.System, k)
	d.Txns.SetMetrics(d.Obs.Metrics)

	regions := append([]cloud.Region{cfg.Profile.Home}, cfg.ExtraRegions...)
	for _, r := range regions {
		d.Stores = append(d.Stores, d.newUserStore(r))
		d.flushProcs = append(d.flushProcs, "leader-update-"+string(r))
		if cfg.CacheMode != CacheOff {
			rc := cache.NewRegional(env, r, cfg.CacheCapacityB)
			if cfg.CostAccounting {
				// Amortize the cache VM's hourly price over the regional
				// hits it serves (only when accounting: accrual adds
				// meter charges the seed experiments don't expect).
				rc.EnableVMAccrual()
			}
			d.Caches = append(d.Caches, rc)
		}
		if cfg.WatchFanout {
			region := r
			fn := watchfanout.New(env, region,
				func(session string, wid int64, ev watchfanout.Event, path string, txid int64) {
					n := Notification{WatchID: wid, Event: EventType(ev), Path: path, Txid: txid}
					d.notify(session, n, n.wireSize())
				},
				func(shard int, wid int64) {
					// The watch's last in-flight firing is done: retire it
					// from this region's shard epoch list so the read gate
					// stops holding for it.
					_, _ = d.System.Update(d.BillSystemCtx(cloud.ClientCtx(region)),
						epochKey(region, shard),
						[]kv.Update{kv.ListRemove{Name: attrEpochList, Vals: []int64{wid}}}, nil)
				},
				sim.Time(cfg.FanoutDebounce))
			if cfg.CostAccounting {
				fn.EnableVMAccrual()
				fn.SetBillCtx(d.BillSystemCtx(cloud.ClientCtx(region)))
			}
			d.Fanouts = append(d.Fanouts, fn)
		}
	}

	for s := 0; s < cfg.WriteShards; s++ {
		d.LeaderQs = append(d.LeaderQs,
			queue.New(env, leaderQueueName(s, cfg.WriteShards), cfg.Profile.OrderedQueueKind()))
	}

	if cfg.DynamicShards {
		d.dyn = &dynShards{store: shardmap.NewStore(d.System)}
		seedMap := shardmap.New(cfg.WriteShards)
		d.dyn.store.Seed(seedMap)
		d.dyn.cur = seedMap
		d.Txns.TrackLive(true)
	}

	d.Platform.Deploy(faas.Config{
		Name: FnFollower, MemoryMB: cfg.FollowerMemMB, Arch: cfg.Arch, VCPU: cfg.VCPU,
		Retries: cfg.Retries,
	}, d.followerHandler)
	d.Platform.Deploy(faas.Config{
		Name: FnLeader, MemoryMB: cfg.LeaderMemMB, Arch: cfg.Arch, VCPU: cfg.VCPU,
		Retries: cfg.Retries,
	}, d.leaderHandler)
	d.Platform.Deploy(faas.Config{
		Name: FnWatch, MemoryMB: watchMemMB, Arch: cfg.Arch, VCPU: cfg.VCPU,
	}, d.watchHandler)
	d.Platform.Deploy(faas.Config{
		Name: FnHeartbeat, MemoryMB: cfg.HeartbeatMemMB,
	}, d.heartbeatHandler)

	// One concurrent leader instance per shard guarantees serialized
	// commits within a shard (Z3; a subtree never spans shards).
	for _, q := range d.LeaderQs {
		d.Platform.AddQueueTrigger(q, FnLeader, 1)
	}

	if cfg.HeartbeatEvery > 0 {
		d.Platform.AddSchedule(FnHeartbeat, cfg.HeartbeatEvery)
	}

	d.seedRoot()
	return d
}

// addShardQueue provisions one more leader queue with its serialized
// trigger (the reshard engine grows the fleet before flipping the map, so
// a routing target always has a consumer).
func (d *Deployment) addShardQueue() {
	s := len(d.LeaderQs)
	q := queue.New(d.Env, fmt.Sprintf("leader-%d", s), d.Cfg.Profile.OrderedQueueKind())
	d.LeaderQs = append(d.LeaderQs, q)
	d.Platform.AddQueueTrigger(q, FnLeader, 1)
}

// TxnWatchStats reports the cross-shard transaction watch pipeline's
// delivery batching: total watch-function invocations and the per-shard
// post-apply batches they were folded into.
func (d *Deployment) TxnWatchStats() (batches, deliveries int64) {
	return d.txnWatchBatches, d.txnWatchDeliveries
}

func (d *Deployment) newUserStore(r cloud.Region) UserStore {
	switch d.Cfg.UserStore {
	case StoreKV:
		return NewKVStore(d.Env, "user-data-"+string(r), r)
	case StoreHybrid:
		return NewHybridStore(d.Env, "user-data-"+string(r), r, hybridThresholdB)
	case StoreMem:
		return NewMemStore(d.Env, r)
	default: // StoreObject: defaults() rejected every other value
		return NewObjectStore(d.Env, "user-data-"+string(r), r)
	}
}

// seedRoot bootstraps "/" in system and user stores at no cost.
func (d *Deployment) seedRoot() {
	d.System.SeedPut(nodeKey(znode.Root), kv.Item{
		{Name: attrExists, V: kv.N(1)},
		{Name: attrChildren, V: kv.StrList()},
	})
	root := &znode.Node{Path: znode.Root}
	for _, s := range d.Stores {
		s.Seed(root)
	}
}

// PrimaryStore returns the home-region user store.
func (d *Deployment) PrimaryStore() UserStore { return d.Stores[0] }

// StoreFor returns the user store local to a region, falling back to the
// primary (clients connect to the closest storage, Section 4.1).
func (d *Deployment) StoreFor(region cloud.Region) UserStore {
	for _, s := range d.Stores {
		if s.Region() == region {
			return s
		}
	}
	return d.Stores[0]
}

// CacheFor returns the regional cache node local to a region (nil when the
// cache tier is off), with the same closest-replica fallback as StoreFor.
func (d *Deployment) CacheFor(region cloud.Region) *cache.Regional {
	if len(d.Caches) == 0 {
		return nil
	}
	for _, c := range d.Caches {
		if c.Region() == region {
			return c
		}
	}
	return d.Caches[0]
}

// FanoutFor returns the watch fan-out node local to a region (nil when
// the tier is off), with the same closest-replica fallback as StoreFor.
func (d *Deployment) FanoutFor(region cloud.Region) *watchfanout.Node {
	if len(d.Fanouts) == 0 {
		return nil
	}
	for _, n := range d.Fanouts {
		if n.Region() == region {
			return n
		}
	}
	return d.Fanouts[0]
}

// Connect provisions the cloud-side transport for a new session: a FIFO
// request queue with a follower trigger (one concurrent instance per
// session preserves the session's FIFO order while different sessions
// proceed in parallel — Section 4.3 "horizontal scaling"), and a duplex
// connection for responses.
func (d *Deployment) Connect(sessionID string, region cloud.Region) *SessionTransport {
	if _, dup := d.sessions[sessionID]; dup {
		panic("core: duplicate session " + sessionID)
	}
	q := queue.New(d.Env, "session-"+sessionID, d.Cfg.Profile.OrderedQueueKind())
	conn := network.NewConn(d.Env, d.Cfg.Profile.Home, region)
	st := &SessionTransport{
		ID:        sessionID,
		Region:    region,
		Queue:     q,
		ClientEnd: conn.B(),
		cloudEnd:  conn.A(),
		pongs:     sim.NewQueue[Pong](d.K),
	}
	d.sessions[sessionID] = st
	d.Platform.AddQueueTrigger(q, FnFollower, 1)
	// Ingress: route client->cloud traffic (heartbeat replies).
	d.K.Go("ingress-"+sessionID, func() {
		for {
			pkt, ok := st.cloudEnd.Recv()
			if !ok {
				return
			}
			if pong, isPong := pkt.Payload.(Pong); isPong {
				st.pongs.Push(pong)
			}
		}
	})
	return st
}

// ReleaseTransport tears down a session's queue and connection after the
// session has been deregistered.
func (d *Deployment) ReleaseTransport(sessionID string) {
	st := d.sessions[sessionID]
	if st == nil {
		return
	}
	st.closed = true
	st.Queue.Close()
	st.cloudEnd.Close()
	delete(d.sessions, sessionID)
}

// notify sends a message to the session's client, dropping it if the
// session is gone (a dead client's responses vanish, as in the cloud).
func (d *Deployment) notify(sessionID string, payload any, size int) {
	st := d.sessions[sessionID]
	if st == nil || st.closed {
		return
	}
	st.cloudEnd.Send(payload, size)
}

// phaseKey names a per-phase latency histogram in the metrics registry.
func phaseKey(name string) obs.Key { return obs.Key{Component: "phase", Name: name} }

// recordPhase observes a per-phase latency (Figures 9-12, Table 3) into
// the metrics registry. With Telemetry off it returns before building the
// key.
func (d *Deployment) recordPhase(name string, dur sim.Time) {
	if !d.Obs.Metrics.Enabled() {
		return
	}
	d.Obs.Metrics.Observe(phaseKey(name), dur)
}

// Phase returns the registry's histogram for one phase name (nil if
// nothing was observed, as always with Telemetry off).
func (d *Deployment) Phase(name string) *stats.Sample { return d.Obs.Metrics.Hist(phaseKey(name)) }

// ResetMetrics clears the cost meter and telemetry spans/instruments,
// phase histograms included (used after warmup).
func (d *Deployment) ResetMetrics() {
	d.Env.Meter.Reset()
	d.Obs.Reset()
}

// RegisterSession writes the session record; the client library calls this
// during connection establishment.
func (d *Deployment) RegisterSession(ctx cloud.Ctx, sessionID string) error {
	return d.System.Put(ctx, sessionKey(sessionID), kv.Item{
		{Name: attrSessionReg, V: kv.N(1)},
		{Name: attrSessionAddr, V: kv.S(string(ctx.Region))},
		{Name: attrSessionEph, V: kv.StrList()},
	}, nil)
}

// RegisterWatch adds the session to the watch group for (path, type) and
// returns the watch id the client must remember for epoch-based read
// ordering. Registration is a single system-store write (Section 4.1:
// "adding insignificant cost").
func (d *Deployment) RegisterWatch(ctx cloud.Ctx, path string, wt WatchType, sessionID string) (int64, error) {
	if d.fanoutOn() {
		// The fan-out tier owns all registrations: one-shot watches keep
		// their exact client-visible semantics but live on the regional
		// node instead of the system store.
		return d.fanoutRegister(ctx, path, wt, sessionID, watchfanout.PolicyImmediate, 0)
	}
	if wt >= WatchPersistent {
		return 0, ErrFanoutOff
	}
	attr := watchAttr(wt)
	_, err := d.System.Update(ctx, watchKey(path),
		[]kv.Update{kv.StrListAppend{Name: attr, Vals: []string{sessionID}}}, nil)
	if err != nil {
		return 0, err
	}
	return WatchID(path, wt), nil
}

func watchAttr(wt WatchType) string {
	switch wt {
	case WatchData:
		return attrWatchData
	case WatchExists:
		return attrWatchExists
	default:
		return attrWatchChild
	}
}

// NumShards returns the number of write shards the leader pipeline is
// partitioned into (1 in the paper's base configuration).
func (d *Deployment) NumShards() int { return len(d.LeaderQs) }

// Epoch returns the in-flight watch ids for a region, aggregated over all
// write shards (strongly consistent system-store reads; exposed for tests
// and the client library). The error is always nil, kept for API
// stability.
func (d *Deployment) Epoch(ctx cloud.Ctx, region cloud.Region) ([]int64, error) {
	var all []int64
	for s := 0; s < d.NumShards(); s++ {
		all = append(all, d.epochShard(ctx, region, s)...)
	}
	return all, nil
}

// epochShard reads one shard's epoch counter for a region (a missing item
// means no in-flight watches).
func (d *Deployment) epochShard(ctx cloud.Ctx, region cloud.Region, shard int) []int64 {
	it, ok := d.System.GetView(ctx, epochKey(region, shard), true)
	if !ok {
		return nil
	}
	// The item is a read-only view; callers append to the returned slice
	// (appendEpochs), so the list itself must be a private copy. Copying
	// just the epoch list skips cloning the whole item.
	return append([]int64(nil), it.Get(attrEpochList).NL...)
}

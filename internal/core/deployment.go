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
	"faaskeeper/internal/znode"
)

// CacheMode selects the read-path cache tier in front of the user store.
type CacheMode string

// Cache tiers. With CacheOff (the default) the read path is byte-for-byte
// the paper's direct store access.
const (
	CacheOff      CacheMode = ""         // no cache: reads hit the user store directly
	CacheRegional CacheMode = "regional" // a shared cache node per region
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

	hybridThresholdB = 4096                    // hybrid store's KV/object split point
	watchMemMB       = 512                     // watch function memory
	lockLease        = 2 * time.Second         // timed-lock lease
	heartbeatTimeout = 1500 * time.Millisecond // client's heartbeat reply deadline
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
	// write path. See ShardOf for the routing function; the count is
	// fixed for the deployment's lifetime.
	WriteShards int

	// BatchWrites lets one distributor flush fold several queued messages
	// (distributor.go): within a chunk only the final state of each
	// touched node is written to the user stores, every parent gets one
	// child-list read-modify-write, and the regional caches get one
	// install per written object. Every per-operation invariant is
	// preserved: each client still receives its own Stat with its own
	// txid, watch payloads carry the firing operation's txid, and epoch
	// entries precede readability of the chunk's writes (Z4). On, a chunk
	// is the whole run of single ops up to the next multi(), which is a
	// chunk of its own (bounded by the queue technology's receive limit);
	// default false ≡ chunks of
	// one message — the paper's one-write-per-message distribution,
	// byte-identical to the golden trace.
	BatchWrites bool

	// CacheMode enables the read-path cache tier (package cache): a
	// shared regional cache node fronting each region's user store. The
	// leader installs each object in it right after its user-store write
	// (a delete or an atomic batch is invalidated before it; clients read
	// the shared root of a sharded deployment from the store), and clients
	// apply the direct path's Z3/Z4 guards before serving a cached entry.
	// Default CacheOff — the paper's direct read path.
	CacheMode CacheMode

	// CacheCapacityB sizes each regional cache node (default 64 MB).
	CacheCapacityB int

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
	// zero-allocation no-op. Default false. (The cost ledger's registry
	// gauges function regardless of this flag; cache statistics are read
	// through cache.Regional.Stats and the client's CacheStats.)
	Telemetry bool

	// CostAccounting enables per-request dollar attribution (package obs
	// cost ledger): every pay-as-you-go charge a request causes — function
	// GB-s, store read/write units, queue deliveries, cache hits, watch
	// pushes — is billed to its trace at the instant the charge occurs,
	// and mirrored into the registry's cost gauges. Works with or without
	// Telemetry (spans only carry per-stage costs when both are on).
	// Default false: every attribution point is a nil-sink no-op and the
	// golden virtual-time trace is byte-identical.
	CostAccounting bool
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
	switch c.CacheMode {
	case "off":
		c.CacheMode = CacheOff
	case "two-level":
		// The spelling of the deleted session cache tier, accepted only
		// because the bench's frozen scaled preset still names it; ROADMAP
		// 25(a) drops it from the preset, and then this case goes.
		c.CacheMode = CacheRegional
	case CacheOff, CacheRegional:
	default:
		// A typo must not silently deploy the wrong tier (an unknown
		// string would otherwise enable the regional cache).
		panic("core: unknown CacheMode " + string(c.CacheMode))
	}
	// CacheCapacityB's 64 MB default is owned by cache.NewRegional (<= 0
	// passes through).
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
	// epochProcs names each region's spawned epoch write of a watch-claim
	// round ("leader-epoch-<region>", aligned with Stores).
	epochProcs []string

	// Obs is the telemetry hub: the request tracer and the component
	// metrics registry. Always non-nil; the tracer and the registry's
	// hot-path instruments record only when Cfg.Telemetry is set, while
	// gauges (the cost ledger's mirror) always work.
	Obs *obs.Hub

	// Caches holds one regional cache node per user store (aligned with
	// Stores); empty when CacheMode is CacheOff.
	Caches []*cache.Regional

	// LeaderQs holds one ordered queue per write shard; LeaderQs[s] feeds
	// shard s's serialized leader instance. A single-shard deployment has
	// exactly the paper's one global queue.
	LeaderQs []*queue.Queue

	// route maps a path to its write shard (Route); built once from
	// WriteShards.
	route *shardmap.Map

	// epochKeys memoizes each region's epoch item key (epochKey).
	// pzxidAttrs names each shard's child stamp on the shared root's control
	// record (childStamps).
	epochKeys  map[cloud.Region]string
	pzxidAttrs []string
	// leaders holds each shard's leader slot (leaderShard).
	leaders []*leaderShard

	sessions map[string]*SessionTransport

	// lastSeq is the warm-sandbox deduplication cache: each session's
	// queue has exactly one concurrent follower instance, so remembering
	// the last processed sequence number in sandbox state suffices to make
	// queue-retry redelivery idempotent. Its keys borrow the last request
	// body of each session, which they pin: one per session, not per path.
	lastSeq map[string]int64
}

// SessionTransport is the cloud-side plumbing of one client session: its
// request queue and the duplex connection used for responses,
// notifications, and heartbeats.
type SessionTransport struct {
	ID        string
	Region    cloud.Region
	Queue     *queue.Queue
	ClientEnd *network.End[SessionMsg] // client side: receive responses / notifications
	cloudEnd  *network.End[SessionMsg]
	pongs     *sim.Queue[int64] // the nonces of the client's pongs
	closed    bool
}

// NewDeployment builds a FaaSKeeper deployment on kernel k. It deploys the
// four functions, wires the leader queue trigger, schedules the heartbeat,
// and seeds the tree root.
func NewDeployment(k *sim.Kernel, cfg Config) *Deployment {
	cfg.defaults()
	env := cloud.NewEnv(k, cfg.Profile)
	d := &Deployment{
		K:         k,
		Env:       env,
		Platform:  faas.NewPlatform(env),
		Cfg:       cfg,
		System:    kv.NewTable(env, "system"),
		sessions:  map[string]*SessionTransport{},
		lastSeq:   map[string]int64{},
		epochKeys: map[cloud.Region]string{},
	}
	d.Obs = obs.NewHub(k, cfg.Telemetry, cfg.CostAccounting)
	d.System.SetCostCategory("syskv")
	d.Locks = fksync.NewLockManager(env, d.System, lockLease)

	regions := append([]cloud.Region{cfg.Profile.Home}, cfg.ExtraRegions...)
	for _, r := range regions {
		d.Stores = append(d.Stores, d.newUserStore(r))
		d.epochProcs = append(d.epochProcs, "leader-epoch-"+string(r))
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
	}

	for s := 0; s < cfg.WriteShards; s++ {
		d.LeaderQs = append(d.LeaderQs,
			queue.New(env, leaderQueueName(s, cfg.WriteShards), cfg.Profile.OrderedQueueKind()))
		d.leaders = append(d.leaders, d.newLeaderShard(s))
		d.pzxidAttrs = append(d.pzxidAttrs, shardAttr(attrPzxid, s))
	}
	d.route = shardmap.New(cfg.WriteShards)

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
	}, d.watchHandler).OnReturn(d.deliveryReturned)
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

// seedRoot bootstraps "/" in system and user stores at no cost. A shared
// root's object starts with a zero child stamp per shard (spliceInto).
func (d *Deployment) seedRoot() {
	d.System.SeedPut(znode.Root, kv.Item{
		{Name: attrExists, V: kv.N(1)},
		{Name: attrChildren, V: kv.StrList()},
	})
	root := &znode.Node{Path: znode.Root}
	if d.route.Shared(znode.Root) {
		root.Pzxids = make([]int64, d.NumShards())
	}
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
	conn := network.NewConn[SessionMsg](d.Env, d.Cfg.Profile.Home, region)
	st := &SessionTransport{
		ID:        sessionID,
		Region:    region,
		Queue:     q,
		ClientEnd: conn.B(),
		cloudEnd:  conn.A(),
		pongs:     sim.NewQueue[int64](d.K),
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
			if pkt.Payload.Kind == MsgPong {
				st.pongs.Push(pkt.Payload.Nonce)
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
func (d *Deployment) notify(sessionID string, m SessionMsg, size int) {
	st := d.sessions[sessionID]
	if st == nil || st.closed {
		return
	}
	st.cloudEnd.Send(m, size)
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

// RegisterWatch adds the session to the watch group for (path, type) on the
// node's control record, and returns the watch id the client must remember
// for epoch-based read ordering and the registration's frontier.
// Registration is a single system-store write (Section 4.1: "adding
// insignificant cost"). The record carries the watch so that the read which
// confirms a change's commit also returns the registrations it fires; the
// cost is that they count toward the record's size, which every lock,
// commit and pop write pays for per 1 KB (about 70 session ids on one node).
func (d *Deployment) RegisterWatch(ctx cloud.Ctx, path string, wt WatchType, sessionID string) (int64, Frontier, error) {
	it, err := d.System.Update(ctx, path,
		[]kv.Update{kv.StrListAppend{Name: watchAttrs[wt-1], Vals: []string{sessionID}}}, nil)
	if err != nil {
		return 0, Frontier{}, err
	}
	f := Frontier{Zxid: it.Get(attrMzxid).Num(), Exists: it.Get(attrExists).Num() == 1}
	if wt == WatchChild {
		f.Zxid = newestPzxid(it)
		if d.route.Shared(path) {
			f.Pzxids = d.childStamps(it)
		}
	}
	return WatchID(path, wt), f, nil
}

// Frontier is the newest committed state of its node a watch registration
// found: the record's mzxid (pzxid for a child watch) and whether the node
// existed. A change committed before the registration may have been claimed
// without it, so the read that arms the watch must return a state at or past
// the frontier: one the watch has nothing left to fire for. A child watch's
// frontier on the shared root is per shard (Pzxids, the record's child
// stamps; Zxid is their maximum): a txid orders only against its own
// shard's, so the arming read waits until the object's stamp for every
// shard (znode.Node.Pzxids) is at or past the frontier's. On every other
// path Pzxids is nil, and the one stamp is Zxid.
type Frontier struct {
	Zxid   int64
	Exists bool
	Pzxids []int64
}

// NumShards returns the number of write shards the leader pipeline is
// partitioned into (1 in the paper's base configuration).
func (d *Deployment) NumShards() int { return len(d.LeaderQs) }

// Epoch returns the stamp a flush in region would carry: the (watch id,
// txid) pair of every fire in flight, over all write shards, from one
// strongly consistent read of the region's epoch item (a missing item means
// none; exposed for tests).
func (d *Deployment) Epoch(ctx cloud.Ctx, region cloud.Region) []int64 {
	it, _ := d.System.GetView(ctx, d.epochKey(region), true)
	return epochUnion(nil, it)
}

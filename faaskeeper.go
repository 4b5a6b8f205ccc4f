// Package faaskeeper is the public façade of the FaaSKeeper reproduction:
// a serverless coordination service with ZooKeeper's consistency model and
// interface, rebuilt from the HPDC 2024 paper "FaaSKeeper: Learning from
// Building Serverless Services with ZooKeeper as an Example" on top of a
// deterministic simulation of the cloud substrate.
//
// A minimal session looks like this:
//
//	sim := faaskeeper.NewSimulation(1)
//	deployment := sim.DeployFaaSKeeper(faaskeeper.DeploymentOptions{})
//	sim.Go(func() {
//		client, _ := deployment.Connect("session-1")
//		defer client.Close()
//		client.Create("/config", []byte("v1"), 0)
//		data, stat, _ := client.GetData("/config")
//		_ = data
//		_ = stat
//	})
//	sim.Run()
//
// Everything — functions, queues, storage, clients — runs in virtual time
// inside the simulation, so a full day of traffic executes in milliseconds
// and runs are reproducible from the seed.
package faaskeeper

import (
	"time"

	"faaskeeper/internal/cloud"
	"faaskeeper/internal/cloud/faas"
	"faaskeeper/internal/core"
	"faaskeeper/internal/fkclient"
	"faaskeeper/internal/obs"
	"faaskeeper/internal/sim"
	"faaskeeper/internal/txn"
	"faaskeeper/internal/zk"
	"faaskeeper/internal/znode"
)

// Re-exported data-model types.
type (
	// Stat is a node's metadata, as in ZooKeeper.
	Stat = znode.Stat
	// Flags control node creation.
	Flags = znode.Flags
	// Notification is a watch event delivered to callbacks.
	Notification = core.Notification
	// WatchCallback receives watch events.
	WatchCallback = fkclient.WatchCallback
	// WatchOptions configures Client.AddWatch (DeploymentOptions.WatchFanout).
	WatchOptions = fkclient.WatchOptions
)

// Node creation flags.
const (
	FlagEphemeral  = znode.FlagEphemeral
	FlagSequential = znode.FlagSequential
)

// Client-facing errors.
var (
	ErrNodeExists = core.ErrNodeExists
	ErrNoNode     = core.ErrNoNode
	ErrBadVersion = core.ErrBadVersion
	ErrNotEmpty   = core.ErrNotEmpty
	ErrTxnAborted = core.ErrTxnAborted
)

// Transaction types (Client.Multi).
type (
	// MultiOp is one sub-operation of a transaction.
	MultiOp = txn.Op
	// MultiResult is one sub-operation's outcome.
	MultiResult = txn.Result
)

// Transaction sub-op constructors, mirroring ZooKeeper's multi vocabulary.
var (
	// CreateOp builds a create sub-op.
	CreateOp = txn.Create
	// SetDataOp builds a set_data sub-op (version -1 matches any).
	SetDataOp = txn.SetData
	// DeleteOp builds a delete sub-op (version -1 matches any).
	DeleteOp = txn.Delete
	// CheckOp builds a version guard (-1 checks bare existence).
	CheckOp = txn.Check
)

// Simulation owns the virtual-time kernel everything runs in.
type Simulation struct {
	k *sim.Kernel
}

// NewSimulation creates a deterministic simulation with the given seed.
func NewSimulation(seed int64) *Simulation {
	return &Simulation{k: sim.NewKernel(seed)}
}

// Kernel exposes the underlying simulation kernel for advanced callers.
func (s *Simulation) Kernel() *sim.Kernel { return s.k }

// Go spawns a simulated process (client code must run inside one).
func (s *Simulation) Go(fn func()) { s.k.Go("user", fn) }

// Run executes the simulation until no work remains and returns the final
// virtual time.
func (s *Simulation) Run() time.Duration { return s.k.Run() }

// RunFor executes at most d of virtual time (use it when a deployment has
// recurring work such as a scheduled heartbeat).
func (s *Simulation) RunFor(d time.Duration) time.Duration { return s.k.RunFor(d) }

// Shutdown releases all parked process goroutines.
func (s *Simulation) Shutdown() { s.k.Shutdown() }

// Sleep pauses the calling process for d of virtual time.
func (s *Simulation) Sleep(d time.Duration) { s.k.Sleep(d) }

// Now returns the current virtual time.
func (s *Simulation) Now() time.Duration { return s.k.Now() }

// StoreKind selects the user data store backend.
type StoreKind = core.StoreKind

// User store backends.
const (
	StoreObject = core.StoreObject // S3-like (the paper's base setup)
	StoreKV     = core.StoreKV     // DynamoDB-like
	StoreHybrid = core.StoreHybrid // small nodes in KV, large in objects
	StoreMem    = core.StoreMem    // Redis-like cache on a VM
)

// CacheMode selects the read-path cache tier.
type CacheMode = core.CacheMode

// Cache tiers.
const (
	CacheOff      = core.CacheOff      // reads hit the user store directly
	CacheRegional = core.CacheRegional // shared per-region cache node
	CacheTwoLevel = core.CacheTwoLevel // client cache + regional node
)

// DeploymentOptions configures a FaaSKeeper deployment. It is core.Config
// itself, so every switch the pipeline has is reachable from here and
// documented once, on its field; README's "Configuration" table lists each
// with its default, the paper's value and who sets it. The zero value is
// the paper's base AWS deployment.
type DeploymentOptions = core.Config

// Provider profiles (DeploymentOptions.Profile; nil deploys AWS) and the
// Graviton-like sandbox architecture (DeploymentOptions.Arch).
var (
	AWSProfile = cloud.AWSProfile
	GCPProfile = cloud.GCPProfile
)

// ARM runs the functions on Graviton-like sandboxes.
const ARM = faas.ARM

// Deployment is a running FaaSKeeper instance.
type Deployment struct {
	sim  *Simulation
	core *core.Deployment
}

// DeployFaaSKeeper provisions storage, queues, and the four functions.
func (s *Simulation) DeployFaaSKeeper(opts DeploymentOptions) *Deployment {
	return &Deployment{sim: s, core: core.NewDeployment(s.k, opts)}
}

// Core exposes the underlying deployment for experiments and inspection.
func (d *Deployment) Core() *core.Deployment { return d.core }

// GrowShards grows a dynamic deployment to n shard queues through the
// live reshard protocol (must be called from inside a simulated process).
func (d *Deployment) GrowShards(n int) error { return d.core.GrowShards(n) }

// ShrinkShards retires trailing shard queues down to n (not below the
// initial WriteShards).
func (d *Deployment) ShrinkShards(n int) error { return d.core.ShrinkShards(n) }

// SplitSubtree re-routes a hot top-level subtree (e.g. "/hot") over ways
// new shard queues, hashing the second path segment so parents and
// children below the subtree root stay colocated.
func (d *Deployment) SplitSubtree(prefix string, ways int) error {
	return d.core.SplitSubtree(prefix, ways)
}

// MergeSubtree folds a split subtree back onto its pre-split route.
func (d *Deployment) MergeSubtree(prefix string) error { return d.core.MergeSubtree(prefix) }

// ShardMapInfo renders the live routing table (empty on static
// deployments). Must be called from inside a simulated process.
func (d *Deployment) ShardMapInfo() string {
	m := d.core.LoadShardMap(cloud.ClientCtx(d.core.Cfg.Profile.Home))
	if m == nil {
		return "static sharding (DynamicShards off)"
	}
	return m.String()
}

// Obs returns the deployment's telemetry hub — the request tracer and the
// component metrics registry (inert unless DeploymentOptions.Telemetry).
func (d *Deployment) Obs() *obs.Hub { return d.core.Obs }

// TotalCost returns the accumulated pay-as-you-go dollars.
func (d *Deployment) TotalCost() float64 { return d.core.Env.Meter.Total() }

// CostBreakdown returns the per-service dollars.
func (d *Deployment) CostBreakdown() map[string]float64 { return d.core.Env.Meter.Snapshot() }

// Client is a FaaSKeeper session handle.
type Client = fkclient.Client

// Connect opens a session in the deployment's home region. Must be called
// from inside a simulated process (Simulation.Go).
func (d *Deployment) Connect(sessionID string) (*Client, error) {
	return fkclient.Connect(d.core, sessionID, d.core.Cfg.Profile.Home)
}

// ConnectFrom opens a session from a specific region, reading from the
// closest user-store replica.
func (d *Deployment) ConnectFrom(sessionID, region string) (*Client, error) {
	return fkclient.Connect(d.core, sessionID, cloud.Region(region))
}

// ZKEnsemble is the baseline ZooKeeper deployment used for comparisons.
type ZKEnsemble struct {
	sim *Simulation
	ens *zk.Ensemble
}

// ZKClient is a baseline ZooKeeper session.
type ZKClient = zk.Client

// DeployZooKeeper starts an n-server baseline ensemble (n defaults to 3).
func (s *Simulation) DeployZooKeeper(n int) *ZKEnsemble {
	env := cloud.NewEnv(s.k, cloud.AWSProfile())
	return &ZKEnsemble{sim: s, ens: zk.NewEnsemble(env, zk.Config{Servers: n})}
}

// Ensemble exposes the underlying ensemble.
func (z *ZKEnsemble) Ensemble() *zk.Ensemble { return z.ens }

// Connect opens a session against server idx.
func (z *ZKEnsemble) Connect(serverIdx int) (*ZKClient, error) {
	return zk.Connect(z.ens, serverIdx)
}

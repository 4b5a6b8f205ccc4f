package chaos

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"faaskeeper/internal/cloud"
	"faaskeeper/internal/core"
	"faaskeeper/internal/fkclient"
	"faaskeeper/internal/obs"
	"faaskeeper/internal/sim"
	"faaskeeper/internal/txn"
	"faaskeeper/internal/watchfanout"
	"faaskeeper/internal/znode"
)

// Scenario is one chaos run: a seed, a deployment config name, workload
// sizing, and a fault schedule. Everything the run does is a pure function
// of this struct, so a failing scenario replays exactly.
type Scenario struct {
	Seed         int64
	Config       string // one of Configs()
	Clients      int    // shared-path worker sessions (0 = defaultClients)
	OpsPerClient int    // ops per worker (0 = defaultOpsPerClient)
	Faults       Faults
	Telemetry    bool
}

// Result is one completed chaos run.
type Result struct {
	Scenario    Scenario
	History     *History
	Violations  []Violation
	FaultCounts map[string]int64
	Schedule    []string // injector's fault log, for failure artifacts
	VirtualTime sim.Time
	Spans       []obs.Span // only with Scenario.Telemetry
}

// Failed reports whether the run found invariant violations.
func (r *Result) Failed() bool { return len(r.Violations) > 0 }

// ReplayCmd is the command line that re-runs this exact scenario: the
// workload's size is part of it.
func (r *Result) ReplayCmd() string {
	cmd := fmt.Sprintf("go test ./internal/chaos -run TestChaos -chaos.seed=%d -chaos.config=%s",
		r.Scenario.Seed, r.Scenario.Config)
	if r.Scenario.Clients == quickClients && r.Scenario.OpsPerClient == quickOpsPerClient {
		cmd += " -chaos.quick"
	}
	return cmd
}

// Workload sizes: the default, and the PR smoke's (-chaos.quick).
const (
	defaultClients, defaultOpsPerClient = 4, 25
	quickClients, quickOpsPerClient     = 3, 12
)

// Quick returns the scenario at the PR smoke's workload size.
func (s Scenario) Quick() Scenario {
	s.Clients, s.OpsPerClient = quickClients, quickOpsPerClient
	return s
}

// withDefaults fills in an unset workload size.
func (s Scenario) withDefaults() Scenario {
	if s.Clients <= 0 {
		s.Clients = defaultClients
	}
	if s.OpsPerClient <= 0 {
		s.OpsPerClient = defaultOpsPerClient
	}
	return s
}

// Configs lists the deployment configurations the chaos matrix covers:
// the paper-faithful single-shard pipeline, the batching distributor, the
// two-level cache tier, cross-shard transactions, live resharding, and
// the hierarchical watch fan-out tier.
func Configs() []string {
	return []string{"plain", "batching", "caching", "txn", "reshard", "fanout"}
}

// DeployConfig maps a matrix config name to its deployment config. All
// configs raise the retry budget well above the crash cap so injected
// crash storms always terminate in a redelivery that completes, and run
// the heartbeat function so crashed sessions' ephemerals are reaped.
func DeployConfig(name string) (core.Config, bool) {
	base := core.Config{
		Retries:        30,
		HeartbeatEvery: 2 * time.Second,
	}
	switch name {
	case "plain":
		return base, true
	case "batching":
		base.WriteShards = 2
		base.BatchWrites = true
		return base, true
	case "caching":
		base.WriteShards = 2
		base.CacheMode = core.CacheTwoLevel
		base.UserStore = core.StoreKV
		return base, true
	case "txn":
		base.WriteShards = 4
		base.UserStore = core.StoreKV
		return base, true
	case "reshard":
		base.WriteShards = 2
		base.DynamicShards = true
		base.UserStore = core.StoreKV
		return base, true
	case "fanout":
		base.WriteShards = 2
		base.UserStore = core.StoreKV
		base.WatchFanout = true
		return base, true
	default:
		return core.Config{}, false
	}
}

// Workload layout. Shared paths take the randomized multi-writer traffic;
// the swap pair is written only by atomic multis and probed in reverse
// order; private paths have a single writing session each.
var sharedRoots = []string{"/s0", "/s1", "/s2", "/s3"}

const (
	watchPath  = "/s0/x"
	swapParent = "/swp"
	swapA      = "/swp/a" // colocated pair: one shard, fast-path multi
	swapB      = "/swp/b"
	crossA     = "/sxa" // top-level pair: spans shards under WriteShards>1
	crossB     = "/sxb"
)

// swapPairsFor returns the swap probes active under a config. The
// cross-shard pair runs only where the user store applies the 2PC commit
// atomically and no cache tier sits in the read path (cross-shard txids
// are not numerically comparable, which the cache floors rely on).
func swapPairsFor(config string) [][2]string {
	pairs := [][2]string{{swapA, swapB}}
	if config == "txn" || config == "reshard" {
		pairs = append(pairs, [2]string{crossA, crossB})
	}
	return pairs
}

// crasher is an ephemeral owner that stops answering heartbeats mid-run:
// the settle phase must reap its ephemeral.
type crasher struct {
	id, path string
	viaMulti bool // the ephemeral is created through multi()
}

// crashersFor returns the crasher sessions active under a config. The txn
// config's second one creates its ephemeral through a one-op multi(): the
// fast path, which keeps the session's ephemeral record on its own.
func crashersFor(config string) []crasher {
	crashers := []crasher{{id: "cr0", path: "/eph-cr0"}}
	if config == "txn" {
		crashers = append(crashers, crasher{id: "cr1", path: "/eph-cr1", viaMulti: true})
	}
	return crashers
}

// isDefinite classifies an operation error: definite errors come from
// validation (or client-side checks) before any commit could happen;
// anything else — system errors, timeouts — is indeterminate and the
// write may still land later.
func isDefinite(err error) bool {
	for _, e := range []error{
		core.ErrNoNode, core.ErrNodeExists, core.ErrBadVersion,
		core.ErrNotEmpty, core.ErrNoChildrenEph, core.ErrTooLarge,
		core.ErrTxnAborted, core.ErrSessionClosed,
		znode.ErrBadPath,
	} {
		if errors.Is(err, e) {
			return true
		}
	}
	return false
}

func errStr(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// Run executes one scenario: deploy, install the seeded injector, drive
// the workload clients, settle, audit the end state, and check the
// recorded history. It never calls testing APIs so the experiment runner
// and the CLI share it with the test harness.
func Run(s Scenario) *Result {
	s = s.withDefaults()
	cfg, ok := DeployConfig(s.Config)
	if !ok {
		return &Result{Scenario: s, Violations: []Violation{{
			Invariant: "harness", Detail: fmt.Sprintf("unknown config %q", s.Config),
		}}}
	}
	cfg.Telemetry = s.Telemetry

	k := sim.NewKernel(s.Seed)
	inj := NewInjector(s.Seed, s.Faults)
	k.SetFaultHook(inj)
	d := core.NewDeployment(k, cfg)
	home := d.Cfg.Profile.Home

	h := &History{}
	res := &Result{Scenario: s, History: h}
	record := func(e Event) { h.Add(e) }
	harness := func(format string, args ...any) {
		res.Violations = append(res.Violations, Violation{
			Invariant: "harness", Detail: fmt.Sprintf(format, args...),
		})
	}

	// ---- recorded client-op wrappers -----------------------------------
	doSet := func(c *fkclient.Client, session, path, value string) {
		start := k.Now()
		st, err := c.SetData(path, []byte(value), -1)
		record(Event{
			Session: session, Kind: KindWrite, Op: "set", Path: path, Value: value,
			Mzxid: st.Mzxid, Start: start, End: k.Now(),
			Err: errStr(err), Definite: err != nil && isDefinite(err),
		})
	}
	doCreate := func(c *fkclient.Client, session, path, value string, flags znode.Flags) error {
		start := k.Now()
		_, err := c.Create(path, []byte(value), flags)
		record(Event{
			Session: session, Kind: KindWrite, Op: "create", Path: path, Value: value,
			Start: start, End: k.Now(),
			Err: errStr(err), Definite: err != nil && isDefinite(err),
		})
		return err
	}
	doDelete := func(c *fkclient.Client, session, path string) {
		start := k.Now()
		err := c.Delete(path, -1)
		record(Event{
			Session: session, Kind: KindWrite, Op: "delete", Path: path,
			Start: start, End: k.Now(),
			Err: errStr(err), Definite: err != nil && isDefinite(err),
		})
	}
	doGet := func(c *fkclient.Client, session, path string) {
		start := k.Now()
		data, st, err := c.GetData(path)
		record(Event{
			Session: session, Kind: KindRead, Op: "get", Path: path, Value: string(data),
			Mzxid: st.Mzxid, Start: start, End: k.Now(),
			Err: errStr(err), Definite: err != nil && isDefinite(err),
		})
	}
	doMulti := func(c *fkclient.Client, session string, ops ...txn.Op) error {
		start := k.Now()
		results, err := c.Multi(ops...)
		ev := Event{
			Session: session, Kind: KindMulti, Op: "multi", Path: ops[0].Path,
			Start: start, End: k.Now(),
			Err: errStr(err), Definite: err != nil && isDefinite(err),
		}
		for i, op := range ops {
			sub := SubOp{Op: opName(op.Type), Path: op.Path, Value: string(op.Data)}
			if i < len(results) {
				sub.Code = results[i].Code
				sub.Txid = results[i].Txid
			} else {
				sub.Code = "?" // no result returned: outcome unknown
			}
			ev.Ops = append(ev.Ops, sub)
		}
		record(ev)
		return err
	}

	// ---- driver ---------------------------------------------------------
	const (
		mainDeadline  = 15 * time.Minute // virtual
		settleTime    = 20 * time.Second
		auditDeadline = 3 * time.Minute
	)
	mainDone, auditDone := false, false
	watcherID := "watcher"

	k.Go("chaos-driver", func() {
		setup, err := fkclient.Connect(d, "setup", home)
		if err != nil {
			harness("setup connect: %v", err)
			mainDone = true
			return
		}
		for _, p := range sharedRoots {
			if err := doCreate(setup, "setup", p, "init"+p+"#0", 0); err != nil {
				harness("setup create %s: %v", p, err)
			}
		}
		_ = doCreate(setup, "setup", watchPath, "init"+watchPath+"#0", 0)
		_ = doCreate(setup, "setup", "/s1/y", "init/s1/y#0", 0)
		_ = doCreate(setup, "setup", swapParent, "init"+swapParent+"#0", 0)
		for _, pair := range swapPairsFor(s.Config) {
			_ = doCreate(setup, "setup", pair[0], pair[0]+"#0", 0)
			_ = doCreate(setup, "setup", pair[1], pair[1]+"#0", 0)
		}

		done := sim.NewWaitGroup(k)
		spawn := func(name string, fn func()) {
			done.Add(1)
			k.Go(name, func() {
				defer done.Done()
				fn()
			})
		}

		// Shared-path workers: randomized set/get plus create/delete of an
		// owned child, per-client seeded streams.
		for ci := 0; ci < s.Clients; ci++ {
			id := fmt.Sprintf("w%d", ci)
			r := rand.New(rand.NewSource(s.Seed + int64(ci)*101))
			spawn(id, func() {
				c, err := fkclient.Connect(d, id, home)
				if err != nil {
					harness("%s connect: %v", id, err)
					return
				}
				defer c.Close()
				own := "/s1/" + id
				for op := 0; op < s.OpsPerClient; op++ {
					path := sharedRoots[r.Intn(len(sharedRoots))]
					switch r.Intn(10) {
					case 0, 1, 2, 3:
						doSet(c, id, path, fmt.Sprintf("%s#%d", id, op))
					case 4:
						_ = doCreate(c, id, own, fmt.Sprintf("%s-own#%d", id, op), 0)
					case 5:
						doDelete(c, id, own)
					case 6:
						doSet(c, id, watchPath, fmt.Sprintf("%s@x#%d", id, op))
					default:
						doGet(c, id, path)
					}
					k.Sleep(time.Duration(r.Intn(40)) * time.Millisecond)
				}
			})
		}

		// Private read-your-writes sessions: sole writer of their path.
		for pi := 0; pi < 2; pi++ {
			id := fmt.Sprintf("p%d", pi)
			path := "/p-" + id
			r := rand.New(rand.NewSource(s.Seed + 7000 + int64(pi)))
			spawn(id, func() {
				c, err := fkclient.Connect(d, id, home)
				if err != nil {
					harness("%s connect: %v", id, err)
					return
				}
				defer c.Close()
				if doCreate(c, id, path, id+"#0", 0) != nil {
					return
				}
				for op := 1; op <= s.OpsPerClient; op++ {
					if r.Intn(2) == 0 {
						doSet(c, id, path, fmt.Sprintf("%s#%d", id, op))
					} else {
						doGet(c, id, path)
					}
					k.Sleep(time.Duration(r.Intn(30)) * time.Millisecond)
				}
			})
		}

		// Swap writer + reverse-order reader per active pair.
		for wi, pair := range swapPairsFor(s.Config) {
			pair := pair
			wid := fmt.Sprintf("swapw%d", wi)
			rid := fmt.Sprintf("swapr%d", wi)
			spawn(wid, func() {
				c, err := fkclient.Connect(d, wid, home)
				if err != nil {
					harness("%s connect: %v", wid, err)
					return
				}
				defer c.Close()
				for kk := 1; kk <= s.OpsPerClient; kk++ {
					v := fmt.Sprintf("sw%d#%d", wi, kk)
					_ = doMulti(c, wid,
						txn.SetData(pair[0], []byte(v), -1),
						txn.SetData(pair[1], []byte(v), -1))
					k.Sleep(60 * time.Millisecond)
				}
			})
			rr := rand.New(rand.NewSource(s.Seed + 9000 + int64(wi)))
			spawn(rid, func() {
				c, err := fkclient.Connect(d, rid, home)
				if err != nil {
					harness("%s connect: %v", rid, err)
					return
				}
				defer c.Close()
				for n := 0; n < s.OpsPerClient; n++ {
					doGet(c, rid, pair[1]) // b first ...
					doGet(c, rid, pair[0]) // ... then a: a must not trail b
					k.Sleep(time.Duration(20+rr.Intn(60)) * time.Millisecond)
				}
			})
		}

		// Watcher: one-shot data watch on a hot path, re-armed after each
		// fire; a never-firing arm gathers read evidence for the checker.
		spawn(watcherID, func() {
			c, err := fkclient.Connect(d, watcherID, home)
			if err != nil {
				harness("%s connect: %v", watcherID, err)
				return
			}
			// No Close: the session must stay open so an armed-but-silent
			// watch at history end is judged, not excused.
			wid := core.WatchID(watchPath, core.WatchData)
			armErrs := 0
			for n := 0; n < s.OpsPerClient; n++ {
				fired := false
				cb := func(note core.Notification) {
					record(Event{
						Session: watcherID, Kind: KindWatchFire, Path: note.Path,
						Mzxid: note.Txid, WatchID: note.WatchID,
						Start: k.Now(), End: k.Now(),
					})
					fired = true
				}
				start := k.Now()
				_, st, err := c.GetDataW(watchPath, cb)
				record(Event{
					Session: watcherID, Kind: KindWatchArm, Path: watchPath,
					Mzxid: st.Mzxid, WatchID: wid, Start: start, End: k.Now(),
					Err: errStr(err),
				})
				if err != nil {
					// Arm reads can time out under heavy schedules; each
					// retry costs a full request timeout, so give up after
					// a few rather than eat the phase deadline.
					if armErrs++; armErrs >= 3 {
						break
					}
					k.Sleep(200 * time.Millisecond)
					continue
				}
				armErrs = 0
				waitUntil := k.Now() + sim.Time(30*time.Second)
				for !fired && k.Now() < waitUntil {
					k.Sleep(50 * time.Millisecond)
				}
				if !fired {
					// Evidence reads, spaced past any in-flight pipeline
					// race, then give up on this arm.
					k.Sleep(5 * time.Second)
					doGet(c, watcherID, watchPath)
					k.Sleep(5 * time.Second)
					doGet(c, watcherID, watchPath)
					break
				}
			}
		})

		// Fan-out tier watchers: a coalescing persistent data watch on the
		// hot path and a recursive subtree watch. Both sessions stay open
		// to history end so the persistent coverage rule can judge them:
		// coalescing may suppress intermediate deliveries, but the newest
		// delivered txid must catch up with every settled write.
		if cfg.WatchFanout {
			for _, pw := range []struct {
				id   string
				path string
				opts fkclient.WatchOptions
			}{
				{"pwatch", watchPath, fkclient.WatchOptions{Policy: watchfanout.PolicyCoalesce}},
				{"rwatch", "/s0", fkclient.WatchOptions{Recursive: true}},
			} {
				pw := pw
				spawn(pw.id, func() {
					c, err := fkclient.Connect(d, pw.id, home)
					if err != nil {
						harness("%s connect: %v", pw.id, err)
						return
					}
					// No Close: the coverage rule only judges open sessions.
					start := k.Now()
					wid, err := c.AddWatch(pw.path, pw.opts, func(note core.Notification) {
						record(Event{
							Session: pw.id, Kind: KindWatchFire, Path: note.Path,
							Mzxid: note.Txid, WatchID: note.WatchID,
							Persistent: true, Recursive: pw.opts.Recursive,
							Start: k.Now(), End: k.Now(),
						})
					})
					record(Event{
						Session: pw.id, Kind: KindWatchArm, Path: pw.path, WatchID: wid,
						Persistent: true, Recursive: pw.opts.Recursive,
						Start: start, End: k.Now(), Err: errStr(err),
					})
					if err != nil {
						harness("%s addwatch: %v", pw.id, err)
						return
					}
					// Reads through the persistent Z4 kick gate, interleaved
					// with the deliveries they may have to wait on.
					for n := 0; n < s.OpsPerClient/2; n++ {
						doGet(c, pw.id, pw.path)
						k.Sleep(300 * time.Millisecond)
					}
				})
			}
		}

		// Session churn: connect, work, clean close, reconnect fresh.
		spawn("churn", func() {
			for gen := 0; gen < 3; gen++ {
				id := fmt.Sprintf("churn%d", gen)
				c, err := fkclient.Connect(d, id, home)
				if err != nil {
					harness("%s connect: %v", id, err)
					return
				}
				for n := 0; n < 5; n++ {
					doSet(c, id, "/s2", fmt.Sprintf("%s#%d", id, n))
					doGet(c, id, "/s2")
					k.Sleep(30 * time.Millisecond)
				}
				if err := c.Close(); err != nil {
					harness("%s close: %v", id, err)
				}
			}
		})

		for _, cr := range crashersFor(s.Config) {
			cr := cr
			spawn(cr.id, func() {
				c, err := fkclient.Connect(d, cr.id, home)
				if err != nil {
					harness("%s connect: %v", cr.id, err)
					return
				}
				if cr.viaMulti {
					err = doMulti(c, cr.id, txn.Create(cr.path, []byte("eph#0"), znode.FlagEphemeral))
				} else {
					err = doCreate(c, cr.id, cr.path, "eph#0", znode.FlagEphemeral)
				}
				if err != nil {
					c.Crash()
					return
				}
				for n := 1; n <= 4; n++ {
					doSet(c, cr.id, cr.path, fmt.Sprintf("eph#%d", n))
					k.Sleep(40 * time.Millisecond)
				}
				c.Crash()
			})
		}

		// Regional cache-node loss, where a cache tier exists.
		if rc := d.CacheFor(home); rc != nil && s.Faults.CacheLosses > 0 {
			spawn("cache-killer", func() {
				for n := 0; n < s.Faults.CacheLosses; n++ {
					k.Sleep(3 * time.Second)
					rc.Lose()
				}
			})
		}

		// Live resharding mid-traffic.
		if s.Config == "reshard" {
			spawn("resharder", func() {
				k.Sleep(2 * time.Second)
				if err := d.SplitSubtree("/s0", 2); err != nil {
					harness("split /s0: %v", err)
				}
				k.Sleep(4 * time.Second)
				if err := d.GrowShards(d.NumShards() + 1); err != nil {
					harness("grow shards: %v", err)
				}
				k.Sleep(4 * time.Second)
				if err := d.MergeSubtree("/s0"); err != nil {
					harness("merge /s0: %v", err)
				}
			})
		}

		done.Wait()
		if err := setup.Close(); err != nil {
			harness("setup close: %v", err)
		}
		mainDone = true
	})

	// The heartbeat function keeps the event loop alive forever, so the
	// kernel is driven in bounded slices gated on completion flags rather
	// than run to quiescence.
	deadline := k.Now() + sim.Time(mainDeadline)
	for !mainDone && k.Now() < deadline {
		k.RunFor(time.Second)
	}
	if !mainDone {
		harness("workload stuck: main phase incomplete after %v virtual time (seed %d, config %s)",
			mainDeadline, s.Seed, s.Config)
	} else {
		k.RunFor(settleTime)

		// ---- audit: end-state reads through a fresh session, ephemeral
		// reaping, and store-level tree integrity.
		k.Go("chaos-audit", func() {
			defer func() { auditDone = true }()
			c, err := fkclient.Connect(d, "audit", home)
			if err != nil {
				harness("audit connect: %v", err)
				return
			}
			defer c.Close()
			paths := append([]string{}, sharedRoots...)
			paths = append(paths, watchPath, "/s1/y")
			for _, pair := range swapPairsFor(s.Config) {
				paths = append(paths, pair[0], pair[1])
			}
			for _, p := range paths {
				doGet(c, "audit", p)
			}
			// A crashed session's ephemeral must be reaped once its
			// heartbeats lapse; poll since eviction rides the faulty
			// pipeline too.
			evictBy := k.Now() + sim.Time(90*time.Second)
			for _, cr := range crashersFor(s.Config) {
				evicted := false
				for {
					_, _, err := c.GetData(cr.path)
					evicted = errors.Is(err, core.ErrNoNode)
					if evicted || k.Now() >= evictBy {
						break
					}
					k.Sleep(5 * time.Second)
				}
				if !evicted {
					res.Violations = append(res.Violations, Violation{
						Invariant: "ephemeral-reaping", Session: cr.id, Path: cr.path,
						Detail: "ephemeral of crashed session still readable 90s after crash",
					})
				}
			}
			// Tree integrity: parent/child links in the user store agree.
			ctx := cloud.ClientCtx(home)
			store := d.StoreFor(home)
			var walk func(path string)
			walk = func(path string) {
				n, _, err := store.Read(ctx, path)
				if err != nil {
					res.Violations = append(res.Violations, Violation{
						Invariant: "tree-integrity", Path: path,
						Detail: fmt.Sprintf("unreadable: %v", err),
					})
					return
				}
				for _, child := range n.Children {
					childPath := znode.Join(path, child)
					if cn, _, err := store.Read(ctx, childPath); err != nil {
						res.Violations = append(res.Violations, Violation{
							Invariant: "tree-integrity", Path: childPath,
							Detail: fmt.Sprintf("listed by %s but unreadable: %v", path, err),
						})
					} else if cn.Path != childPath {
						res.Violations = append(res.Violations, Violation{
							Invariant: "tree-integrity", Path: childPath,
							Detail: fmt.Sprintf("stored under wrong path %s", cn.Path),
						})
					} else {
						walk(childPath)
					}
				}
			}
			walk(znode.Root)
		})
		auditBy := k.Now() + sim.Time(auditDeadline)
		for !auditDone && k.Now() < auditBy {
			k.RunFor(time.Second)
		}
		if !auditDone {
			harness("audit stuck after %v virtual time", auditDeadline)
		}
	}

	res.VirtualTime = k.Now()
	res.FaultCounts = inj.Counts()
	res.Schedule = inj.Schedule()
	if s.Telemetry && d.Obs != nil {
		res.Spans = d.Obs.Tracer.Spans()
	}
	k.Shutdown()

	open := map[string]bool{watcherID: true}
	if cfg.WatchFanout {
		open["pwatch"] = true
		open["rwatch"] = true
	}
	res.Violations = append(res.Violations, Check(h, CheckOpts{
		SwapPairs:    swapPairsFor(s.Config),
		OpenSessions: open,
	})...)
	return res
}

func opName(t txn.OpType) string {
	switch t {
	case txn.OpCreate:
		return "create"
	case txn.OpSetData:
		return "set"
	case txn.OpDelete:
		return "delete"
	default:
		return "check"
	}
}

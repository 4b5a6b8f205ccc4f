package chaos

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"faaskeeper/internal/cloud"
	"faaskeeper/internal/core"
	"faaskeeper/internal/fkclient"
	"faaskeeper/internal/histcheck"
	"faaskeeper/internal/obs"
	"faaskeeper/internal/sim"
	"faaskeeper/internal/txn"
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
}

// Result is one completed chaos run.
type Result struct {
	Scenario    Scenario
	History     *histcheck.History
	Violations  []histcheck.Violation
	FaultCounts map[string]int64
	Schedule    []string // injector's fault log, for failure artifacts
	VirtualTime sim.Time
	Spans       []obs.Span // only on a traced seed (see traced)
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

// matrix is the chaos matrix, one row per deployment config: the
// paper-faithful single-shard pipeline, the batching distributor, the
// cache tier on two shards, multi() on four shards, the scaled preset the
// benchmark runs (batching and the cache together, where a flush leg writes
// several objects and installs each one after its own store write), the
// hybrid store, the cache tier on one shard, a cache small enough to
// evict, the cache over the object store, batching on one shard, and four
// unbatched shards. A row's index is also its matrix
// seed offset (chaos_test.go), so a new row is appended: moving a row
// renumbers the seeds of every row it passes.
var matrix = []struct {
	name string
	cfg  core.Config
}{
	{"plain", core.Config{}},
	{"batching", core.Config{WriteShards: 2, BatchWrites: true}},
	{"caching", core.Config{WriteShards: 2, CacheMode: core.CacheRegional, UserStore: core.StoreKV}},
	{"txn", core.Config{WriteShards: 4, UserStore: core.StoreKV}},
	{"scaled", core.Config{WriteShards: 4, BatchWrites: true, CacheMode: core.CacheRegional, UserStore: core.StoreKV}},
	{"hybrid", core.Config{UserStore: core.StoreHybrid}},
	{"regional", core.Config{CacheMode: core.CacheRegional, UserStore: core.StoreKV}},
	{"tiny-cache", core.Config{CacheMode: core.CacheRegional, UserStore: core.StoreKV, CacheCapacityB: 2 << 10}},
	{"object-cache", core.Config{CacheMode: core.CacheRegional}},
	{"batching-1", core.Config{BatchWrites: true}},
	{"sharded", core.Config{WriteShards: 4}},
}

// Configs lists the names of the chaos matrix's deployment configs, in
// matrix order.
func Configs() []string {
	names := make([]string, len(matrix))
	for i, row := range matrix {
		names[i] = row.name
	}
	return names
}

// DeployConfig maps a matrix config name to its deployment config. All
// configs raise the retry budget well above the crash cap so injected
// crash storms always terminate in a redelivery that completes, and run
// the heartbeat function so crashed sessions' ephemerals are reaped.
func DeployConfig(name string) (core.Config, bool) {
	for _, row := range matrix {
		if row.name == name {
			cfg := row.cfg
			cfg.Retries = 30
			cfg.HeartbeatEvery = 2 * time.Second
			return cfg, true
		}
	}
	return core.Config{}, false
}

// Workload layout. Shared paths take the randomized multi-writer traffic;
// the swap pair is written only by atomic multis and probed in reverse
// order; private paths have a single writing session each.
var sharedRoots = []string{"/s0", "/s1", "/s2", "/s3"}

const (
	watchPath  = "/s0/x"
	swapParent = "/swp"
	swapA      = "/swp/a" // colocated pair: one shard, one multi() message
	swapB      = "/swp/b"
)

// swapPairs lists the swap probes: pairs one multi() may write, so they
// share their top-level node and with it a shard.
var swapPairs = [][2]string{{swapA, swapB}}

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
		core.ErrTxnAborted, core.ErrSessionClosed, core.ErrBadArguments,
		core.ErrCrossShard, znode.ErrBadPath,
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

// traced reports whether a seed runs with spans and cost accounting on: a
// quarter of seeds, picked by a hash of the seed alone, so a replayed seed
// is traced as it was. (A matrix seed's low bits are its row's index.)
func traced(seed int64) bool { return uint64(seed)*0x9E3779B97F4A7C15>>62 == 0 }

// Run executes one scenario: deploy, install the seeded injector, drive
// the workload clients, settle, audit the end state, and check the
// recorded history. On a traced seed it also checks the span and cost
// rules (obs.Hub.Verify). It never calls testing APIs so the experiment
// runner and the CLI share it with the test harness.
func Run(s Scenario) *Result { return run(s, traced(s.Seed)) }

// run is Run with tracing chosen by the caller. Spans and dollars are
// pure bookkeeping: they move no event of the run.
func run(s Scenario, traced bool) *Result {
	s = s.withDefaults()
	cfg, ok := DeployConfig(s.Config)
	if !ok {
		return &Result{Scenario: s, Violations: []histcheck.Violation{{
			Invariant: "harness", Detail: fmt.Sprintf("unknown config %q", s.Config),
		}}}
	}
	cfg.Telemetry, cfg.CostAccounting = traced, traced

	k := sim.NewKernel(s.Seed)
	inj := NewInjector(s.Seed, s.Faults)
	k.SetFaultHook(inj)
	d := core.NewDeployment(k, cfg)
	home := d.Cfg.Profile.Home

	h := &histcheck.History{}
	res := &Result{Scenario: s, History: h}
	record := func(e histcheck.Event) { h.Add(e) }
	harness := func(format string, args ...any) {
		res.Violations = append(res.Violations, histcheck.Violation{
			Invariant: "harness", Detail: fmt.Sprintf(format, args...),
		})
	}

	// ---- recorded client-op wrappers -----------------------------------
	doSet := func(c *fkclient.Client, session, path, value string) {
		start := k.Now()
		st, err := c.SetData(path, []byte(value), -1)
		record(histcheck.Event{
			Session: session, Kind: histcheck.KindWrite, Op: "set", Path: path, Value: value,
			Mzxid: st.Mzxid, Version: st.Version, Start: start, End: k.Now(),
			Err: errStr(err), Definite: err != nil && isDefinite(err),
		})
	}
	doCreate := func(c *fkclient.Client, session, path, value string, flags znode.Flags) error {
		start := k.Now()
		_, err := c.Create(path, []byte(value), flags)
		record(histcheck.Event{
			Session: session, Kind: histcheck.KindWrite, Op: "create", Path: path, Value: value,
			Start: start, End: k.Now(),
			Err: errStr(err), Definite: err != nil && isDefinite(err),
		})
		return err
	}
	doDelete := func(c *fkclient.Client, session, path string) {
		start := k.Now()
		err := c.Delete(path, -1)
		record(histcheck.Event{
			Session: session, Kind: histcheck.KindWrite, Op: "delete", Path: path,
			Start: start, End: k.Now(),
			Err: errStr(err), Definite: err != nil && isDefinite(err),
		})
	}
	doGet := func(c *fkclient.Client, session, path string) {
		start := k.Now()
		data, st, err := c.GetData(path)
		record(histcheck.Event{
			Session: session, Kind: histcheck.KindRead, Op: "get", Path: path, Value: string(data),
			Mzxid: st.Mzxid, Start: start, End: k.Now(),
			Err: errStr(err), Definite: err != nil && isDefinite(err),
		})
	}
	doMulti := func(c *fkclient.Client, session string, ops ...txn.Op) error {
		start := k.Now()
		results, err := c.Multi(ops...)
		ev := histcheck.Event{
			Session: session, Kind: histcheck.KindMulti, Op: "multi", Path: ops[0].Path,
			Start: start, End: k.Now(),
			Err: errStr(err), Definite: err != nil && isDefinite(err),
		}
		for i, op := range ops {
			sub := histcheck.SubOp{Op: opName(op.Type), Path: op.Path, Value: string(op.Data)}
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
		for _, pair := range swapPairs {
			_ = doCreate(setup, "setup", pair[0], pair[0]+"#0", 0)
			_ = doCreate(setup, "setup", pair[1], pair[1]+"#0", 0)
		}

		done := sim.NewWaitGroup(k)

		// Shared-path workers: randomized set/get plus create/delete of an
		// owned child, per-client seeded streams.
		for ci := 0; ci < s.Clients; ci++ {
			id := fmt.Sprintf("w%d", ci)
			r := rand.New(rand.NewSource(s.Seed + int64(ci)*101))
			done.Go(id, func() {
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
			done.Go(id, func() {
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
		for wi, pair := range swapPairs {
			pair := pair
			wid := fmt.Sprintf("swapw%d", wi)
			rid := fmt.Sprintf("swapr%d", wi)
			done.Go(wid, func() {
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
			done.Go(rid, func() {
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
		done.Go(watcherID, func() {
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
					record(histcheck.Event{
						Session: watcherID, Kind: histcheck.KindWatchFire, Path: note.Path,
						Mzxid: note.Txid, WatchID: note.WatchID,
						Start: k.Now(), End: k.Now(),
					})
					fired = true
				}
				start := k.Now()
				_, st, err := c.GetDataW(watchPath, cb)
				record(histcheck.Event{
					Session: watcherID, Kind: histcheck.KindWatchArm, Path: watchPath,
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

		// On several shards the root's child list changes on every shard:
		// a churner creates and deletes a top-level node per shard and
		// writes the root's data every third op, a second writer writes
		// the root's data meanwhile, and a watcher keeps a child watch on
		// the root re-armed and reads every node its arming read listed.
		// histcheck.Check judges the watch by child sets (lost-watch) and
		// each listed node by its read (listed-unreadable).
		if d.NumShards() > 1 {
			done.Go("rootchurn", func() {
				c, err := fkclient.Connect(d, "rootchurn", home)
				if err != nil {
					harness("rootchurn connect: %v", err)
					return
				}
				defer c.Close()
				r := rand.New(rand.NewSource(s.Seed + 11000))
				names := topLevelPerShard(d.NumShards())
				live := make([]bool, len(names))
				for op := 0; op < s.OpsPerClient; op++ {
					i := r.Intn(len(names))
					if live[i] {
						doDelete(c, "rootchurn", names[i])
						live[i] = false
					} else {
						err := doCreate(c, "rootchurn", names[i], fmt.Sprintf("rootchurn#%d", op), 0)
						live[i] = err == nil || errors.Is(err, core.ErrNodeExists)
					}
					if op%3 == 2 {
						doSet(c, "rootchurn", znode.Root, fmt.Sprintf("root#%d", op))
					}
					k.Sleep(time.Duration(r.Intn(40)) * time.Millisecond)
				}
			})
			done.Go("rootwriter", func() {
				c, err := fkclient.Connect(d, "rootwriter", home)
				if err != nil {
					harness("rootwriter connect: %v", err)
					return
				}
				defer c.Close()
				r := rand.New(rand.NewSource(s.Seed + 12000))
				for op := 0; op < s.OpsPerClient; op++ {
					doSet(c, "rootwriter", znode.Root, fmt.Sprintf("rootwriter#%d", op))
					k.Sleep(time.Duration(r.Intn(60)) * time.Millisecond)
				}
			})
			done.Go(rootWatcherID, func() {
				c, err := fkclient.Connect(d, rootWatcherID, home)
				if err != nil {
					harness("%s connect: %v", rootWatcherID, err)
					return
				}
				// A crasher's ephemeral vanishes without a recorded delete.
				vanishes := map[string]bool{}
				for _, cr := range crashersFor(s.Config) {
					vanishes[cr.path] = true
				}
				watchChildren(k, c, rootWatcherID, s.OpsPerClient, record, func(path string) {
					if !vanishes[path] {
						doGet(c, rootWatcherID, path)
					}
				})
			})
		}

		// Session churn: connect, work, clean close, reconnect fresh.
		done.Go("churn", func() {
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
			done.Go(cr.id, func() {
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
			done.Go("cache-killer", func() {
				for n := 0; n < s.Faults.CacheLosses; n++ {
					k.Sleep(3 * time.Second)
					rc.Lose()
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
			for _, pair := range swapPairs {
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
					res.Violations = append(res.Violations, histcheck.Violation{
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
					res.Violations = append(res.Violations, histcheck.Violation{
						Invariant: "tree-integrity", Path: path,
						Detail: fmt.Sprintf("unreadable: %v", err),
					})
					return
				}
				for _, child := range n.Children {
					childPath := znode.Join(path, child)
					if cn, _, err := store.Read(ctx, childPath); err != nil {
						res.Violations = append(res.Violations, histcheck.Violation{
							Invariant: "tree-integrity", Path: childPath,
							Detail: fmt.Sprintf("listed by %s but unreadable: %v", path, err),
						})
					} else if cn.Path != childPath {
						res.Violations = append(res.Violations, histcheck.Violation{
							Invariant: "tree-integrity", Path: childPath,
							Detail: fmt.Sprintf("stored under wrong path %s", cn.Path),
						})
					} else {
						walk(childPath)
					}
				}
			}
			walk(znode.Root)
			// At rest the user store agrees with the system store.
			for _, f := range d.AtRest(ctx) {
				res.Violations = append(res.Violations, histcheck.Violation{Invariant: "at-rest", Detail: f})
			}
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
	if traced {
		res.Spans = d.Obs.Tracer.Spans()
		for _, f := range d.Obs.Verify() {
			res.Violations = append(res.Violations, histcheck.Violation{Invariant: f.Rule, Detail: f.Detail})
		}
	}
	k.Shutdown()

	res.Violations = append(res.Violations, histcheck.Check(h, histcheck.CheckOpts{
		OpenSessions: map[string]bool{watcherID: true, rootWatcherID: true},
		Shards:       d.NumShards(),
	})...)
	return res
}

// rootWatcherID is the session that keeps a child watch on the root on a
// sharded row (watchChildren).
const rootWatcherID = "rootwatcher"

// topLevelPerShard returns one top-level path per write shard.
func topLevelPerShard(shards int) []string {
	paths := make([]string, shards)
	for i, found := 0, 0; found < shards; i++ {
		p := fmt.Sprintf("/t%d", i)
		if s := core.ShardOf(p, shards); paths[s] == "" {
			paths[s] = p
			found++
		}
	}
	return paths
}

// watchChildren keeps a one-shot child watch on the root armed, re-arming
// it after each fire up to arms times, and records each arming read's child
// list and each fire. After each arming read it reads every node the read
// listed through get.
// An arm that does not fire within 30 s gathers two children reads as
// the checker's evidence and ends the loop. The session stays open, so a
// silent arm at history end is judged.
func watchChildren(k *sim.Kernel, c *fkclient.Client, session string, arms int, record func(histcheck.Event), get func(path string)) {
	wid := core.WatchID(znode.Root, core.WatchChild)
	children := func() {
		start := k.Now()
		kids, err := c.GetChildren(znode.Root)
		record(histcheck.Event{Session: session, Kind: histcheck.KindRead, Op: "children", Path: znode.Root,
			Children: kids, Start: start, End: k.Now(), Err: errStr(err)})
	}
	armErrs := 0
	for n := 0; n < arms; n++ {
		fired := false
		cb := func(note core.Notification) {
			record(histcheck.Event{Session: session, Kind: histcheck.KindWatchFire, Path: note.Path,
				Mzxid: note.Txid, WatchID: note.WatchID, Start: k.Now(), End: k.Now()})
			fired = true
		}
		start := k.Now()
		kids, err := c.GetChildrenW(znode.Root, cb)
		record(histcheck.Event{Session: session, Kind: histcheck.KindWatchArm, Op: "children", Path: znode.Root,
			Children: kids, WatchID: wid, Start: start, End: k.Now(), Err: errStr(err)})
		if err != nil {
			if armErrs++; armErrs >= 3 {
				return
			}
			k.Sleep(200 * time.Millisecond)
			continue
		}
		armErrs = 0
		for _, kid := range kids {
			get(znode.Join(znode.Root, kid))
		}
		for waitUntil := k.Now() + sim.Time(30*time.Second); !fired && k.Now() < waitUntil; {
			k.Sleep(50 * time.Millisecond)
		}
		if !fired {
			k.Sleep(5 * time.Second)
			children()
			k.Sleep(5 * time.Second)
			children()
			return
		}
	}
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

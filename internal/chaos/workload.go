package chaos

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
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
	Spans       []obs.Span // only on a traced seed (see modeOf)
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
// the swap pair is written by multi()s (and single-op sets of one half)
// and probed in reverse order; private paths have a single writing session
// each.
var sharedRoots = []string{"/s0", "/s1", "/s2", "/s3"}

const (
	watchPath  = "/s0/x"
	swapParent = "/swp"
	swapA      = "/swp/a" // the swap pair: one multi() writes both, so they
	swapB      = "/swp/b" // share their top-level node and with it a shard
	pairA      = "/s3/wa" // the watched pair: one writer sets both back to
	pairB      = "/s3/wb" // back, under one top-level node, so one shard
)

// pipeProcs is the number of processes that share the pipelined session's
// client.
const pipeProcs = 3

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

// mode is what a run records beside its history: spans and dollars
// (modeTraced), dollars alone (modeCostOnly), or neither.
type mode int

const (
	modeOff mode = iota
	modeTraced
	modeCostOnly
)

// modeOf picks a seed's mode by a hash of the seed alone, so a replayed
// seed runs as it did: a quarter of seeds traced, a quarter cost-only. (A
// matrix seed's low bits are its row's index.)
func modeOf(seed int64) mode {
	switch uint64(seed) * 0x9E3779B97F4A7C15 >> 62 {
	case 0:
		return modeTraced
	case 1:
		return modeCostOnly
	}
	return modeOff
}

// Run executes one scenario: deploy, install the seeded injector, drive
// the workload clients, settle, audit the end state, and check the
// recorded history. On a traced seed it also checks the span and cost
// rules (obs.Hub.Verify), on a cost-only seed the cost rules. It never
// calls testing APIs so the experiment runner and the CLI share it with
// the test harness.
func Run(s Scenario) *Result { return run(s, modeOf(s.Seed)) }

// run is Run with the mode chosen by the caller. Spans and dollars are
// pure bookkeeping: they move no event of the run.
func run(s Scenario, m mode) *Result {
	s = s.withDefaults()
	cfg, ok := DeployConfig(s.Config)
	if !ok {
		return &Result{Scenario: s, Violations: []histcheck.Violation{{
			Invariant: "harness", Detail: fmt.Sprintf("unknown config %q", s.Config),
		}}}
	}
	cfg.Telemetry, cfg.CostAccounting = m == modeTraced, m != modeOff

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
	doWrite := func(c *fkclient.Client, session string, op core.OpCode, path, value string, flags znode.Flags) error {
		start := k.Now()
		resp, err := c.Write(op, path, []byte(value), -1, flags)
		record(histcheck.Event{
			Session: session, Kind: histcheck.KindWrite, Op: opName(string(op)), Path: path, Value: value,
			Mzxid: resp.Txid, Version: resp.Stat.Version, Start: start, End: k.Now(),
			Err: errStr(err), Definite: err != nil && isDefinite(err),
		})
		return err
	}
	doGet := func(c *fkclient.Client, session, path string) znode.Stat {
		start := k.Now()
		data, st, err := c.GetData(path)
		record(histcheck.Event{
			Session: session, Kind: histcheck.KindRead, Op: "get", Path: path, Value: string(data),
			Mzxid: st.Mzxid, Start: start, End: k.Now(),
			Err: errStr(err), Definite: err != nil && isDefinite(err),
		})
		return st
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
			sub := histcheck.SubOp{Op: opName(string(op.Type)), Path: op.Path, Value: string(op.Data)}
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

	// connect opens a session; a failure is a harness violation.
	connect := func(id string) *fkclient.Client {
		c, err := fkclient.Connect(d, id, home)
		if err != nil {
			harness("%s connect: %v", id, err)
		}
		return c
	}

	// ---- driver ---------------------------------------------------------
	const (
		mainDeadline  = 15 * time.Minute // virtual
		settleTime    = 20 * time.Second
		auditDeadline = 3 * time.Minute
	)
	mainDone, auditDone := false, false

	k.Go("chaos-driver", func() {
		setup := connect("setup")
		if setup == nil {
			mainDone = true
			return
		}
		for _, p := range sharedRoots {
			if err := doWrite(setup, "setup", core.OpCreate, p, "init"+p+"#0", 0); err != nil {
				harness("setup create %s: %v", p, err)
			}
		}
		_ = doWrite(setup, "setup", core.OpCreate, watchPath, "init"+watchPath+"#0", 0)
		_ = doWrite(setup, "setup", core.OpCreate, "/s1/y", "init/s1/y#0", 0)
		_ = doWrite(setup, "setup", core.OpCreate, swapParent, "init"+swapParent+"#0", 0)
		_ = doWrite(setup, "setup", core.OpCreate, swapA, swapA+"#0", 0)
		_ = doWrite(setup, "setup", core.OpCreate, swapB, swapB+"#0", 0)
		_ = doWrite(setup, "setup", core.OpCreate, pairA, pairA+"#0", 0)
		_ = doWrite(setup, "setup", core.OpCreate, pairB, pairB+"#0", 0)

		done := sim.NewWaitGroup(k)

		// Shared-path workers: randomized set/get plus create/delete of an
		// owned child, per-client seeded streams.
		for ci := 0; ci < s.Clients; ci++ {
			id := fmt.Sprintf("w%d", ci)
			r := rand.New(rand.NewSource(s.Seed + int64(ci)*101))
			done.Go(id, func() {
				c := connect(id)
				if c == nil {
					return
				}
				defer c.Close()
				own := "/s1/" + id
				for op := 0; op < s.OpsPerClient; op++ {
					path := sharedRoots[r.Intn(len(sharedRoots))]
					switch r.Intn(10) {
					case 0, 1, 2, 3:
						_ = doWrite(c, id, core.OpSetData, path, fmt.Sprintf("%s#%d", id, op), 0)
					case 4:
						_ = doWrite(c, id, core.OpCreate, own, fmt.Sprintf("%s-own#%d", id, op), 0)
					case 5:
						_ = doWrite(c, id, core.OpDelete, own, "", 0)
					case 6:
						_ = doWrite(c, id, core.OpSetData, watchPath, fmt.Sprintf("%s@x#%d", id, op), 0)
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
				c := connect(id)
				if c == nil {
					return
				}
				defer c.Close()
				if doWrite(c, id, core.OpCreate, path, id+"#0", 0) != nil {
					return
				}
				for op := 1; op <= s.OpsPerClient; op++ {
					if r.Intn(2) == 0 {
						_ = doWrite(c, id, core.OpSetData, path, fmt.Sprintf("%s#%d", id, op), 0)
					} else {
						doGet(c, id, path)
					}
					k.Sleep(time.Duration(r.Intn(30)) * time.Millisecond)
				}
			})
		}

		// Swap writer and reverse-order reader of the swap pair.
		done.Go("swapw0", func() {
			c := connect("swapw0")
			if c == nil {
				return
			}
			defer c.Close()
			for kk := 1; kk <= s.OpsPerClient; kk++ {
				v := fmt.Sprintf("sw0#%d", kk)
				_ = doMulti(c, "swapw0", txn.SetData(swapA, []byte(v), -1), txn.SetData(swapB, []byte(v), -1))
				k.Sleep(60 * time.Millisecond)
			}
		})
		rr := rand.New(rand.NewSource(s.Seed + 9000))
		done.Go("swapr0", func() {
			c := connect("swapr0")
			if c == nil {
				return
			}
			defer c.Close()
			for n := 0; n < s.OpsPerClient; n++ {
				doGet(c, "swapr0", swapB) // b first ...
				doGet(c, "swapr0", swapA) // ... then a: a must not trail b
				k.Sleep(time.Duration(20+rr.Intn(60)) * time.Millisecond)
			}
		})

		// Pipelined session: several processes share one client, so the
		// session has several writes in flight at once: sets of the shared
		// roots, creates and deletes of one child per process, and creates
		// of a shared root, which the follower refuses (node_exists). The
		// session reads nothing: a read overtaken by its own in-flight
		// write would be judged against it.
		done.Go("pipe", func() {
			c := connect("pipe")
			if c == nil {
				return
			}
			defer c.Close()
			procs := sim.NewWaitGroup(k)
			for pi := 0; pi < pipeProcs; pi++ {
				own := fmt.Sprintf("/s2/pipe%d", pi)
				r := rand.New(rand.NewSource(s.Seed + 13000 + int64(pi)))
				procs.Go(fmt.Sprintf("pipe%d", pi), func() {
					for op := 0; op < s.OpsPerClient/(2*pipeProcs); op++ {
						v := fmt.Sprintf("pipe%d#%d", pi, op)
						switch root := sharedRoots[r.Intn(len(sharedRoots))]; r.Intn(5) {
						case 0, 1:
							_ = doWrite(c, "pipe", core.OpSetData, root, v, 0)
						case 2:
							_ = doWrite(c, "pipe", core.OpCreate, own, v, 0)
						case 3:
							_ = doWrite(c, "pipe", core.OpDelete, own, "", 0)
						default:
							_ = doWrite(c, "pipe", core.OpCreate, root, v, 0)
						}
						k.Sleep(time.Duration(r.Intn(20)) * time.Millisecond)
					}
				})
			}
			procs.Wait()
		})

		// Transaction mixer: version-guarded multi()s on the swap pair,
		// which race the swap writer's and its own single-op sets of one
		// half (bad_version aborts); a create+set multi() under a shared
		// root; and a multi() over two top-level paths, committed where
		// they share a shard and answered cross_shard where they do not.
		done.Go("txmix", func() {
			c := connect("txmix")
			if c == nil {
				return
			}
			defer c.Close()
			r := rand.New(rand.NewSource(s.Seed + 14000))
			for op := 0; op < s.OpsPerClient/2; op++ {
				v := fmt.Sprintf("txmix#%d", op)
				switch r.Intn(4) {
				case 0:
					va, vb := doGet(c, "txmix", swapA).Version, doGet(c, "txmix", swapB).Version
					_ = doMulti(c, "txmix", txn.SetData(swapA, []byte(v), va), txn.SetData(swapB, []byte(v), vb))
				case 1:
					_ = doWrite(c, "txmix", core.OpSetData, []string{swapA, swapB}[r.Intn(2)], v, 0)
				case 2:
					p := fmt.Sprintf("%s/m%d", sharedRoots[r.Intn(len(sharedRoots))], op)
					_ = doMulti(c, "txmix", txn.Create(p, []byte(v+"-c"), 0), txn.SetData(p, []byte(v), 0))
				default:
					i := r.Intn(len(sharedRoots))
					j := (i + 1 + r.Intn(len(sharedRoots)-1)) % len(sharedRoots)
					_ = doMulti(c, "txmix", txn.SetData(sharedRoots[i], []byte(v), -1), txn.SetData(sharedRoots[j], []byte(v), -1))
				}
				k.Sleep(time.Duration(r.Intn(40)) * time.Millisecond)
			}
		})

		// Watcher: one-shot data watch on a hot path, re-armed after each
		// fire; a never-firing arm gathers read evidence for the checker.
		done.Go(watcherID, func() {
			c := connect(watcherID)
			if c == nil {
				return
			}
			// No Close: the session must stay open so an armed-but-silent
			// watch at history end is judged, not excused.
			watchLoop(k, c, watcherID, watchPath, core.WatchData, s.OpsPerClient, record,
				func() { doGet(c, watcherID, watchPath) }, nil)
		})

		// Watched pair: one writer sets both paths back to back, and a
		// watcher keeps a data watch armed on each, re-arming the one that
		// fired, and reads both while it waits. Its notifications come
		// from one shard, which must deliver them in txid order, each
		// ahead of the watcher's reads of that write or a later one
		// (notification-order, watch-stale-read).
		pairDone := false
		done.Go("pairw", func() {
			defer func() { pairDone = true }()
			c := connect("pairw")
			if c == nil {
				return
			}
			defer c.Close()
			r := rand.New(rand.NewSource(s.Seed + 15000))
			for op := 0; op < s.OpsPerClient; op++ {
				v := fmt.Sprintf("pairw#%d", op)
				_ = doWrite(c, "pairw", core.OpSetData, pairA, v, 0)
				_ = doWrite(c, "pairw", core.OpSetData, pairB, v, 0)
				k.Sleep(time.Duration(r.Intn(80)) * time.Millisecond)
			}
		})
		done.Go(pairWatcherID, func() {
			c := connect(pairWatcherID)
			if c == nil {
				return
			}
			defer c.Close()
			r := rand.New(rand.NewSource(s.Seed + 16000))
			armed := map[string]bool{}
			arm := func(path string) {
				ev := histcheck.Event{Session: pairWatcherID, Kind: histcheck.KindWatchArm, Path: path,
					WatchID: core.WatchID(path, core.WatchData), Start: k.Now()}
				_, st, err := c.GetDataW(path, func(note core.Notification) {
					record(histcheck.Event{Session: pairWatcherID, Kind: histcheck.KindWatchFire, Path: note.Path,
						Mzxid: note.Txid, WatchID: note.WatchID, Start: k.Now(), End: k.Now()})
					armed[path] = false
				})
				ev.Mzxid, ev.End, ev.Err = st.Mzxid, k.Now(), errStr(err)
				record(ev)
				armed[path] = err == nil
			}
			for !pairDone {
				for _, p := range []string{pairA, pairB} {
					if !armed[p] {
						arm(p)
					}
				}
				doGet(c, pairWatcherID, pairA)
				doGet(c, pairWatcherID, pairB)
				k.Sleep(time.Duration(10+r.Intn(40)) * time.Millisecond)
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
				c := connect("rootchurn")
				if c == nil {
					return
				}
				defer c.Close()
				r := rand.New(rand.NewSource(s.Seed + 11000))
				names := topLevelPerShard(d.NumShards())
				live := make([]bool, len(names))
				for op := 0; op < s.OpsPerClient; op++ {
					i := r.Intn(len(names))
					if live[i] {
						_ = doWrite(c, "rootchurn", core.OpDelete, names[i], "", 0)
						live[i] = false
					} else {
						err := doWrite(c, "rootchurn", core.OpCreate, names[i], fmt.Sprintf("rootchurn#%d", op), 0)
						live[i] = err == nil || errors.Is(err, core.ErrNodeExists)
					}
					if op%3 == 2 {
						_ = doWrite(c, "rootchurn", core.OpSetData, znode.Root, fmt.Sprintf("root#%d", op), 0)
					}
					k.Sleep(time.Duration(r.Intn(40)) * time.Millisecond)
				}
			})
			done.Go("rootwriter", func() {
				c := connect("rootwriter")
				if c == nil {
					return
				}
				defer c.Close()
				r := rand.New(rand.NewSource(s.Seed + 12000))
				for op := 0; op < s.OpsPerClient; op++ {
					_ = doWrite(c, "rootwriter", core.OpSetData, znode.Root, fmt.Sprintf("rootwriter#%d", op), 0)
					k.Sleep(time.Duration(r.Intn(60)) * time.Millisecond)
				}
			})
			done.Go(rootWatcherID, func() {
				c := connect(rootWatcherID)
				if c == nil {
					return
				}
				// A crasher's ephemeral vanishes without a recorded delete.
				vanishes := map[string]bool{}
				for _, cr := range crashersFor(s.Config) {
					vanishes[cr.path] = true
				}
				children := func() {
					start := k.Now()
					kids, err := c.GetChildren(znode.Root)
					record(histcheck.Event{Session: rootWatcherID, Kind: histcheck.KindRead, Op: "children", Path: znode.Root,
						Children: kids, Start: start, End: k.Now(), Err: errStr(err)})
				}
				watchLoop(k, c, rootWatcherID, znode.Root, core.WatchChild, s.OpsPerClient, record, children, func(path string) {
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
				c := connect(id)
				if c == nil {
					return
				}
				for n := 0; n < 5; n++ {
					_ = doWrite(c, id, core.OpSetData, "/s2", fmt.Sprintf("%s#%d", id, n), 0)
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
				c := connect(cr.id)
				if c == nil {
					return
				}
				var err error
				if cr.viaMulti {
					err = doMulti(c, cr.id, txn.Create(cr.path, []byte("eph#0"), znode.FlagEphemeral))
				} else {
					err = doWrite(c, cr.id, core.OpCreate, cr.path, "eph#0", znode.FlagEphemeral)
				}
				if err != nil {
					c.Crash()
					return
				}
				for n := 1; n <= 4; n++ {
					_ = doWrite(c, cr.id, core.OpSetData, cr.path, fmt.Sprintf("eph#%d", n), 0)
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
		// reaping, and the stores at rest.
		k.Go("chaos-audit", func() {
			defer func() { auditDone = true }()
			c := connect("audit")
			if c == nil {
				return
			}
			defer c.Close()
			for _, p := range append(slices.Clone(sharedRoots), watchPath, "/s1/y", swapA, swapB, pairA, pairB) {
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
			// At rest the user store agrees with the system store, and
			// every child a record lists exists, under its own path.
			ctx := cloud.ClientCtx(home)
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
	if m == modeTraced {
		res.Spans = d.Obs.Tracer.Spans()
	}
	if m != modeOff {
		for _, f := range d.Obs.Verify() {
			res.Violations = append(res.Violations, histcheck.Violation{Invariant: f.Rule, Detail: f.Detail})
		}
	}
	k.Shutdown()

	_, atomic := d.Stores[0].(core.AtomicApplier)
	res.Violations = append(res.Violations, histcheck.Check(h, histcheck.CheckOpts{
		OpenSessions: map[string]bool{watcherID: true, rootWatcherID: true},
		Shards:       d.NumShards(),
		AtomicMulti:  atomic,
	})...)
	return res
}

// The sessions that keep a watch armed and stay open: the data watcher on
// watchPath, and on a sharded row the child watcher on the root. The pair
// watcher closes once the pair's writer is done.
const watcherID, rootWatcherID, pairWatcherID = "watcher", "rootwatcher", "pairwatch"

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

// watchLoop keeps a one-shot watch of type wt on path armed, re-arming it
// after each fire up to arms times, and records each arming read (a child
// watch's with the children it listed) and each fire. After a child watch's
// arming read it reads every node the read listed through get. An arm that
// does not fire within 30 s gathers two evidence reads through read, spaced
// past any in-flight pipeline race, and ends the loop. The session stays
// open, so a silent arm at history end is judged.
func watchLoop(k *sim.Kernel, c *fkclient.Client, session, path string, wt core.WatchType, arms int,
	record func(histcheck.Event), read func(), get func(path string)) {
	wid := core.WatchID(path, wt)
	armErrs := 0
	for n := 0; n < arms; n++ {
		fired := false
		cb := func(note core.Notification) {
			record(histcheck.Event{Session: session, Kind: histcheck.KindWatchFire, Path: note.Path,
				Mzxid: note.Txid, WatchID: note.WatchID, Start: k.Now(), End: k.Now()})
			fired = true
		}
		arm := histcheck.Event{Session: session, Kind: histcheck.KindWatchArm, Path: path, WatchID: wid, Start: k.Now()}
		var err error
		if wt == core.WatchChild {
			arm.Op = "children"
			arm.Children, err = c.GetChildrenW(path, cb)
		} else {
			var st znode.Stat
			_, st, err = c.GetDataW(path, cb)
			arm.Mzxid = st.Mzxid
		}
		arm.End, arm.Err = k.Now(), errStr(err)
		record(arm)
		if err != nil {
			// Arm reads can time out under heavy schedules; each retry
			// costs a full request timeout, so give up after a few rather
			// than eat the phase deadline.
			if armErrs++; armErrs >= 3 {
				return
			}
			k.Sleep(200 * time.Millisecond)
			continue
		}
		armErrs = 0
		for _, kid := range arm.Children {
			get(znode.Join(path, kid))
		}
		for waitUntil := k.Now() + sim.Time(30*time.Second); !fired && k.Now() < waitUntil; {
			k.Sleep(50 * time.Millisecond)
		}
		if !fired {
			k.Sleep(5 * time.Second)
			read()
			k.Sleep(5 * time.Second)
			read()
			return
		}
	}
}

// opName names a write or a multi() sub-op in a history: its op code, with
// set_data as "set".
func opName(op string) string {
	if op == string(core.OpSetData) {
		return "set"
	}
	return op
}

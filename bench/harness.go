package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"runtime"
	"time"

	"faaskeeper/internal/core"
	"faaskeeper/internal/fkclient"
	"faaskeeper/internal/obs"
	"faaskeeper/internal/sim"
	"faaskeeper/internal/znode"
)

// opClass names what a latency sample measures.
type opClass int

const (
	clsWrite  opClass = iota // SetData call -> ack (from due time on open_write)
	clsRead                  // GetData call -> return
	clsNotify                // writer's SetData call -> watcher callback entry
	nClass
)

var classNames = [nClass]string{"write", "read", "notify"}

// warmupOps run before every timed window: they pay the cold starts and
// fill the caches, and count for the oracle but for no metric.
const warmupOps = 200

// chunks is how many equal-op slices the timed window's host time is cut
// into; their spread is the run's own noise measurement.
const chunks = 64

// drainVirtual is how long the driver idles after the last ack of the
// warm-up and of the timed window, so that function invocations still
// running (the leader bills after it answers, the watch function after it
// delivers) land on the right side of the meter reset.
const drainVirtual = 5 * time.Second

// benchSpan is the benchmark's own root span around one client call.
type benchSpan struct {
	class        opClass
	sess, node   int
	seq          int64 // the session's write sequence number; 0 for reads
	vstart, vend sim.Time
	hstart, hend time.Time
}

// run is the state of one pass: a fresh kernel and deployment, the
// sessions, and everything the pass measures.
type run struct {
	w      *workload
	k      *sim.Kernel
	d      *core.Deployment
	rng    *rand.Rand // the workload's key stream; never the kernel's
	setup  *fkclient.Client
	sess   []*fkclient.Client
	paths  []string
	oracle *oracle
	traced bool

	ops      int  // operations the current phase issues
	timedOps int  // operations the timed window issues
	timed    bool // false during warm-up
	nstamp   uint64
	wseq     []int64 // per session: writes submitted so far (the client's Seq)

	watch *watchState // watch_notify only

	res passResult

	chunkEvery, chunkNext int
	chunkAt               []time.Time
	spans                 []benchSpan // traced passes only; ring of spanKeep
}

// spanKeep bounds the root spans kept for the trace file.
const spanKeep = 2000

// stepResult is one fixed-rate step of the open-loop workload.
type stepResult struct {
	rate       int       // writes per virtual second
	lat        []float64 // vms from due time
	backlogMid int
	backlogEnd int
	meetsSLO   bool
}

// passResult is everything one pass measured.
type passResult struct {
	// Virtual clock.
	lat     [nClass][]float64 // vms
	vwindow sim.Time          // first timed call -> last ack
	ops     int64             // acked operations in the window (reads + writes)
	writes  int64
	reads   int64
	steps   []stepResult
	genLate []float64 // open loop: vms between due time and the call

	// Watch workload.
	notifications   int64
	orderViolations int64

	// Meter and counters over the window (after the drain).
	usd       float64
	dollars   map[string]float64
	counts    map[string]int64
	coldStart int64
	billedSec float64
	l1, l2    int64
	miss      int64
	evictions int64

	// Host clock.
	wallStart time.Time // start of the timed window
	setup     time.Duration
	chunkUs   []float64 // host microseconds per op, one value per chunk
	mallocs   uint64
	allocB    uint64
	gcPauseNs uint64
	heapSysB  uint64

	// Traced passes.
	obsSpans   []obs.Span
	benchSpans []benchSpan
	hub        *obs.Hub
	shards     int

	vhash     uint64 // see hashVirtual
	attempted int64
	failed    int64
	failures  []string
}

// hashVirtual folds every virtual-time result of the pass into one
// number: two passes of the same seed must agree on it bit for bit. It
// runs before anything sorts the samples.
func (p *passResult) hashVirtual() uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(x uint64) {
		binary.LittleEndian.PutUint64(b[:], x)
		h.Write(b[:])
	}
	for _, l := range p.lat {
		put(uint64(len(l)))
		for _, x := range l {
			put(math.Float64bits(x))
		}
	}
	for _, s := range p.steps {
		put(uint64(s.backlogMid))
		put(uint64(s.backlogEnd))
		for _, x := range s.lat {
			put(math.Float64bits(x))
		}
	}
	put(uint64(p.vwindow))
	put(uint64(p.ops))
	put(uint64(p.notifications))
	return h.Sum64()
}

func vms(d sim.Time) float64 { return float64(d) / float64(time.Millisecond) }

// runPass executes one pass of w at the given size. seed fixes both the
// kernel's random source and the workload's key stream.
func runPass(w *workload, seed int64, scale float64, traced bool) *passResult {
	hostStart := time.Now()
	cfg, _ := applyPreset(w.preset)
	if traced {
		cfg.Telemetry = true
		cfg.CostAccounting = true
	}
	k := sim.NewKernel(seed)
	r := &run{
		w:      w,
		k:      k,
		d:      core.NewDeployment(k, cfg),
		rng:    rand.New(rand.NewSource(seed ^ 0x5eed5eed)),
		oracle: newOracle(w.sessions+w.watchers, w.nodes),
		traced: traced,
		// At least one operation per session, whatever the scale.
		timedOps: max(int(math.Round(float64(w.opsFull)*scale)), w.sessions),
		wseq:     make([]int64, w.sessions+w.watchers),
	}
	k.Go("bench-driver", func() { r.drive(hostStart) })
	k.Run()
	k.Shutdown()
	r.res.vhash = r.res.hashVirtual()
	r.res.attempted = r.oracle.attempted
	r.res.failed = r.oracle.failed
	r.res.failures = r.oracle.msgs
	return &r.res
}

// drive is the pass's driver process: set up, warm up, measure, drain,
// read back.
func (r *run) drive(hostStart time.Time) {
	w, d, k := r.w, r.d, r.k
	home := d.Cfg.Profile.Home
	connect := func(id string) *fkclient.Client {
		c, err := fkclient.Connect(d, id, home)
		if err != nil {
			panic("bench: connect " + id + ": " + err.Error())
		}
		return c
	}
	r.setup = connect("setup")
	r.paths = make([]string, w.nodes)
	for n := range r.paths {
		r.paths[n] = fmt.Sprintf("/n%04d", n)
		data, stamp := r.payload()
		_, err := r.setup.Create(r.paths[n], data, 0)
		r.oracle.created(n, stamp, err)
	}
	for s := 0; s < w.sessions+w.watchers; s++ {
		r.sess = append(r.sess, connect(fmt.Sprintf("s%02d", s)))
	}
	if w.arm != nil {
		w.arm(r)
	}
	r.ops = warmupOps
	w.load(r)
	k.Sleep(drainVirtual) // nothing of the warm-up is in flight when the meters reset

	n := r.timedOps
	r.ops = n
	for c := range r.res.lat {
		r.res.lat[c] = make([]float64, 0, n*w.samplesPerOp[c])
	}
	r.chunkEvery = max(n/chunks, 1)
	r.chunkNext = r.chunkEvery
	r.chunkAt = make([]time.Time, 0, chunks+1)

	d.ResetMetrics()
	cold0, billed0 := r.faasTotals()
	l10, l20, miss0 := r.cacheTotals()
	evict0 := r.evictions()
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	r.res.setup = time.Since(hostStart)

	r.timed = true
	vstart := k.Now()
	wallStart := time.Now()
	r.res.wallStart = wallStart
	r.chunkAt = append(r.chunkAt, wallStart)
	w.load(r)
	r.res.vwindow = k.Now() - vstart
	runtime.ReadMemStats(&m1)
	r.timed = false

	k.Sleep(drainVirtual)
	if w.finish != nil {
		w.finish(r)
	}
	res := &r.res
	res.mallocs = m1.Mallocs - m0.Mallocs
	res.allocB = m1.TotalAlloc - m0.TotalAlloc
	res.gcPauseNs = m1.PauseTotalNs - m0.PauseTotalNs
	res.heapSysB = m1.HeapSys
	for i := 1; i < len(r.chunkAt); i++ {
		res.chunkUs = append(res.chunkUs,
			float64(r.chunkAt[i].Sub(r.chunkAt[i-1]).Nanoseconds())/1e3/float64(r.chunkEvery))
	}
	meter := d.Env.Meter
	res.usd = meter.Total()
	res.dollars = meter.Snapshot()
	res.counts = map[string]int64{}
	for _, c := range meter.Categories() {
		res.counts[c] = meter.Count(c)
	}
	cold1, billed1 := r.faasTotals()
	res.coldStart, res.billedSec = cold1-cold0, billed1-billed0
	l11, l21, miss1 := r.cacheTotals()
	res.l1, res.l2, res.miss = l11-l10, l21-l20, miss1-miss0
	res.evictions = r.evictions() - evict0
	res.shards = d.NumShards()
	if r.traced {
		res.obsSpans = d.Obs.Tracer.Spans()
		// Oldest first: the ring wraps at the window's op count.
		at := int(res.ops) % len(r.spans)
		if int(res.ops) <= len(r.spans) {
			at = 0
		}
		res.benchSpans = append(r.spans[at:], r.spans[:at]...)
		res.hub = d.Obs
		for _, e := range d.Obs.Tracer.Errors() {
			r.oracle.fail("tracer: %s", e)
		}
	}

	for n, p := range r.paths {
		data, stat, err := r.setup.GetData(p)
		r.oracle.final(n, data, stat, err)
	}
	for _, c := range r.sess {
		_ = c.Close() // the pass is over; a failed deregistration changes no result
	}
	_ = r.setup.Close()
}

func (r *run) faasTotals() (cold int64, billedSec float64) {
	for _, name := range []string{core.FnFollower, core.FnLeader, core.FnWatch, core.FnHeartbeat} {
		f := r.d.Platform.Function(name)
		cold += f.ColdStarts()
		billedSec += f.BilledSeconds()
	}
	return cold, billedSec
}

func (r *run) cacheTotals() (l1, l2, miss int64) {
	for _, c := range r.sess {
		a, b, m := c.CacheStats()
		l1, l2, miss = l1+a, l2+b, miss+m
	}
	return l1, l2, miss
}

func (r *run) evictions() (n int64) {
	for _, c := range r.d.Caches {
		n += c.Evictions()
	}
	return n
}

// payload builds one write's data: the workload's size, led by a stamp
// no other write of the pass carries.
func (r *run) payload() ([]byte, uint64) {
	r.nstamp++
	data := make([]byte, r.w.payloadB)
	binary.LittleEndian.PutUint64(data, r.nstamp)
	return data, r.nstamp
}

// record files one finished client call: its latency sample, the host
// time of every chunk boundary it crosses, and (traced) its root span.
func (r *run) record(sp benchSpan, from sim.Time) {
	if !r.timed {
		return
	}
	res := &r.res
	res.lat[sp.class] = append(res.lat[sp.class], vms(sp.vend-from))
	res.ops++
	if sp.class == clsWrite {
		res.writes++
	} else {
		res.reads++
	}
	if int(res.ops) == r.chunkNext {
		r.chunkAt = append(r.chunkAt, time.Now())
		r.chunkNext += r.chunkEvery
	}
	if r.traced {
		sp.hend = time.Now()
		if len(r.spans) < spanKeep {
			r.spans = append(r.spans, sp)
		} else {
			r.spans[(int(res.ops)-1)%spanKeep] = sp
		}
	}
}

func (r *run) begin(class opClass, sess, node int) benchSpan {
	sp := benchSpan{class: class, sess: sess, node: node, vstart: r.k.Now()}
	if r.traced && r.timed {
		sp.hstart = time.Now()
	}
	return sp
}

// set issues one SetData on the session and checks its ack. due is when
// the write was scheduled: the call time in a closed loop.
func (r *run) set(sess, node int, due sim.Time) znode.Stat {
	data, stamp := r.payload()
	r.wseq[sess]++
	sp := r.begin(clsWrite, sess, node)
	sp.seq = r.wseq[sess]
	stat, err := r.sess[sess].SetData(r.paths[node], data, -1)
	sp.vend = r.k.Now()
	r.oracle.acked(sess, node, stamp, stat, err)
	r.record(sp, due)
	return stat
}

// get issues one GetData on the session and checks what it returned.
func (r *run) get(sess, node int) {
	sp := r.begin(clsRead, sess, node)
	data, stat, err := r.sess[sess].GetData(r.paths[node])
	sp.vend = r.k.Now()
	r.oracle.read(sess, node, data, stat, err)
	r.record(sp, sp.vstart)
}

// closedLoop runs r.ops operations split evenly over the workload's load
// sessions, each session issuing its next operation when the previous one
// returns, and waits for all of them. Each session draws from its own
// key stream so that the streams do not depend on scheduling.
func (r *run) closedLoop(op func(sess int, rng *rand.Rand)) {
	wg := sim.NewWaitGroup(r.k)
	per := r.ops / r.w.sessions
	for s := 0; s < r.w.sessions; s++ {
		s, rng := s, rand.New(rand.NewSource(r.rng.Int63()))
		wg.Add(1)
		r.k.Go(fmt.Sprintf("bench-load-%d", s), func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				op(s, rng)
			}
		})
	}
	wg.Wait()
}

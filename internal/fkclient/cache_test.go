package fkclient

// Tests of the read-path cache tier as seen through the client library:
// the session guards (per-path last-seen floor, shard MRD, Z4 stamps) must
// keep every ZooKeeper guarantee intact while the regional node absorbs
// reads.

import (
	"errors"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"faaskeeper/internal/core"
	"faaskeeper/internal/obs"
	"faaskeeper/internal/sim"
	"faaskeeper/internal/txn"
	"faaskeeper/internal/znode"
)

func cachedCfg() core.Config {
	return core.Config{UserStore: core.StoreKV, CacheMode: core.CacheRegional}
}

// runCached builds a deployment and runs fn as a driver.
func runCached(t *testing.T, seed int64, cfg core.Config, fn func(k *sim.Kernel, d *core.Deployment)) {
	t.Helper()
	k := sim.NewKernel(seed)
	d := core.NewDeployment(k, cfg)
	k.Go("driver", func() { fn(k, d) })
	k.Run()
	k.Shutdown()
}

// TestCacheServesRepeatedReads: every read of a node the session just
// created comes from the regional node, not the store — the leader
// installed the object after writing it, so even the first read is a hit.
func TestCacheServesRepeatedReads(t *testing.T) {
	runCached(t, 1, cachedCfg(), func(k *sim.Kernel, d *core.Deployment) {
		c, err := Connect(d, "s", d.Cfg.Profile.Home)
		if err != nil {
			t.Fatalf("connect: %v", err)
		}
		defer c.Close()
		if _, err := c.Create("/x", []byte("v"), 0); err != nil {
			t.Fatalf("create: %v", err)
		}
		for i := 0; i < 3; i++ {
			if _, _, err := c.GetData("/x"); err != nil {
				t.Fatalf("read %d: %v", i, err)
			}
		}
		l1, l2, misses := c.CacheStats()
		if misses != 0 {
			t.Errorf("misses = %d, want 0: the create installed /x", misses)
		}
		if l1 != 0 || l2 != 3 {
			t.Errorf("cache hits l1=%d l2=%d, want 3 regional hits", l1, l2)
		}
	})
}

// TestCacheWriteInstallsForOtherSessions: after any session's write —
// a create, a set_data, and the child-list rewrite of the create's parent —
// another session's first read of the node is a regional hit that reads
// nothing from the user store.
func TestCacheWriteInstallsForOtherSessions(t *testing.T) {
	t.Run(string(core.CacheRegional), func(t *testing.T) {
		runCached(t, 12, cachedCfg(), func(k *sim.Kernel, d *core.Deployment) {
			w, err := Connect(d, "w", d.Cfg.Profile.Home)
			if err != nil {
				t.Fatalf("connect w: %v", err)
			}
			defer w.Close()
			if _, err := w.Create("/p", nil, 0); err != nil {
				t.Fatalf("create /p: %v", err)
			}
			if _, err := w.Create("/p/x", []byte("v0"), 0); err != nil {
				t.Fatalf("create /p/x: %v", err)
			}
			if _, err := w.Create("/y", []byte("y0"), 0); err != nil {
				t.Fatalf("create /y: %v", err)
			}
			if _, err := w.SetData("/y", []byte("y1"), -1); err != nil {
				t.Fatalf("set /y: %v", err)
			}
			r, err := Connect(d, "r", d.Cfg.Profile.Home)
			if err != nil {
				t.Fatalf("connect r: %v", err)
			}
			defer r.Close()
			storeReads := d.Env.Meter.Count("userkv.read")
			if data, _, err := r.GetData("/p/x"); err != nil || string(data) != "v0" {
				t.Fatalf("read /p/x = %q (%v), want v0", data, err)
			}
			if data, _, err := r.GetData("/y"); err != nil || string(data) != "y1" {
				t.Fatalf("read /y = %q (%v), want y1", data, err)
			}
			if kids, err := r.GetChildren("/p"); err != nil || !slices.Equal(kids, []string{"x"}) {
				t.Fatalf("children of /p = %v (%v), want [x]", kids, err)
			}
			if n := d.Env.Meter.Count("userkv.read") - storeReads; n != 0 {
				t.Errorf("the reads made %d user-store reads, want 0", n)
			}
			if l1, l2, misses := r.CacheStats(); l1 != 0 || l2 != 3 || misses != 0 {
				t.Errorf("cache stats l1=%d l2=%d misses=%d, want 3 regional hits", l1, l2, misses)
			}
		})
	})
}

// TestCacheMultiSwapNeverTorn: a multi() swaps a pair on the KV store while
// a reader reads the pair in reverse order. The regional node holds one
// entry, so the install of the pair's first path is evicted by its second:
// the reader mixes cache hits (the second path) with store reads (the
// first). A hit shows what the store already holds — the install follows
// the atomic store write — so the first path is never older than the
// second.
func TestCacheMultiSwapNeverTorn(t *testing.T) {
	const payloadB = 100
	cfg := core.Config{UserStore: core.StoreKV, CacheMode: core.CacheRegional, CacheCapacityB: 300}
	runCached(t, 13, cfg, func(k *sim.Kernel, d *core.Deployment) {
		val := func(tok int) []byte { return []byte(fmt.Sprintf("%0*d", payloadB, tok)) }
		tokOf := func(b []byte) int {
			tok, err := strconv.Atoi(string(b))
			if err != nil {
				t.Fatalf("bad value %q", b)
			}
			return tok
		}
		w, err := Connect(d, "w", d.Cfg.Profile.Home)
		if err != nil {
			t.Fatalf("connect w: %v", err)
		}
		defer w.Close()
		for _, p := range []string{"/cfg", "/cfg/a", "/cfg/b"} {
			if _, err := w.Create(p, val(0), 0); err != nil {
				t.Fatalf("create %s: %v", p, err)
			}
		}
		r, err := Connect(d, "r", d.Cfg.Profile.Home)
		if err != nil {
			t.Fatalf("connect r: %v", err)
		}
		defer r.Close()
		const swaps = 40
		stop := false
		done := sim.NewWaitGroup(k)
		done.Add(1)
		k.Go("swapper", func() {
			defer done.Done()
			defer func() { stop = true }()
			for tok := 1; tok <= swaps; tok++ {
				if _, err := w.Multi(txn.SetData("/cfg/a", val(tok), -1), txn.SetData("/cfg/b", val(tok), -1)); err != nil {
					t.Errorf("swap %d: %v", tok, err)
					return
				}
				k.Sleep(sim.Time(tok%7) * sim.Ms(1))
			}
		})
		done.Add(1)
		k.Go("reader", func() {
			defer done.Done()
			for i := 0; !stop; i++ {
				b, _, err := r.GetData("/cfg/b")
				if err != nil {
					t.Errorf("read b: %v", err)
					return
				}
				a, _, err := r.GetData("/cfg/a")
				if err != nil {
					t.Errorf("read a: %v", err)
					return
				}
				if ta, tb := tokOf(a), tokOf(b); ta < tb {
					t.Errorf("torn swap: /cfg/b at %d, then /cfg/a at %d", tb, ta)
				}
				k.Sleep(sim.Time(i%3) * sim.Ms(1))
			}
		})
		done.Wait()
		if _, l2, misses := r.CacheStats(); l2 == 0 || misses == 0 {
			t.Fatalf("reader made %d regional hits and %d store reads, want both", l2, misses)
		}
	})
}

// legDelay is a sim.FaultHook that holds every operation of the leader's
// flush legs (the "leader-update-<region>" processes) open for extra, so a
// reader can act inside a leg, and logs when each of them started.
type legDelay struct {
	k     *sim.Kernel
	extra sim.Time
	ops   []sim.Time
}

func (*legDelay) Crash(string, string, int64) bool { return false }
func (*legDelay) Redeliver(string) bool            { return false }
func (*legDelay) DeliveryDelay(string) sim.Time    { return 0 }
func (h *legDelay) OpDelay() sim.Time {
	if !strings.HasPrefix(h.k.Current().Name(), "leader-update-") {
		return 0
	}
	h.ops = append(h.ops, h.k.Now())
	return h.extra
}

// legHold is how long legDelay holds a leg's operation open.
const legHold = 20 * time.Millisecond

// runLegDelayed runs fn on a batching deployment with a regional cache on
// the KV store, whose flush legs hold each operation open for legHold. A
// failed check returns from fn rather than calling t.Fatal, which would
// end the simulated process without handing the kernel back.
func runLegDelayed(t *testing.T, seed int64, fn func(k *sim.Kernel, d *core.Deployment, h *legDelay)) {
	t.Helper()
	cfg := core.Config{UserStore: core.StoreKV, BatchWrites: true, CacheMode: core.CacheRegional, Telemetry: true}
	runCached(t, seed, cfg, func(k *sim.Kernel, d *core.Deployment) {
		h := &legDelay{k: k, extra: legHold}
		k.SetFaultHook(h)
		fn(k, d, h)
	})
}

// TestCacheBatchedLegInstallsInWriteOrder: one chunk sets /p, then creates
// /q. A reader polls /q — nothing caches it before the create, so each read
// reaches the store — and the moment it sees /q it reads /p. /p's install
// runs before /q's store write starts, so /p is never older than the chunk
// then; an install of the whole leg after its last store write would serve
// the old /p for as long as that install takes.
func TestCacheBatchedLegInstallsInWriteOrder(t *testing.T) {
	runLegDelayed(t, 31, func(k *sim.Kernel, d *core.Deployment, h *legDelay) {
		w, r := mustConnect(t, d, "w"), mustConnect(t, d, "r")
		defer w.Close()
		defer r.Close()
		if _, err := w.Create("/p", []byte("p0"), 0); err != nil {
			t.Errorf("create /p: %v", err)
			return
		}
		if data, _, err := r.GetData("/p"); err != nil || string(data) != "p0" {
			t.Errorf("warm read /p = %q (%v)", data, err)
			return
		}
		// A first write holds the leader in its flush while the next two
		// queue up behind it, so they reach it as one chunk.
		before := len(h.ops)
		h.extra = 20 * legHold
		futs := []*sim.Future[core.Response]{w.submitWrite(core.OpSetData, "/p", []byte("p1"), -1, 0)}
		for len(h.ops) == before {
			k.Sleep(time.Millisecond)
		}
		h.extra = legHold
		futs = append(futs,
			w.submitWrite(core.OpSetData, "/p", []byte("p2"), -1, 0),
			w.submitWrite(core.OpCreate, "/q", []byte("q"), -1, 0))
		for {
			_, _, err := r.GetData("/q")
			if err == nil {
				break
			}
			if !errors.Is(err, core.ErrNoNode) {
				t.Errorf("read /q: %v", err)
				return
			}
			k.Sleep(time.Millisecond / 2)
		}
		if data, _, err := r.GetData("/p"); err != nil || string(data) != "p2" {
			t.Errorf("read /p after seeing /q = %q (%v), want p2: the cache ran behind an earlier object of the leg", data, err)
		}
		for i, f := range futs {
			if resp, ok := f.WaitTimeout(DefaultRequestTimeout); !ok || resp.Code != core.CodeOK {
				t.Errorf("write %d: ok=%v code=%s", i, ok, resp.Code)
				return
			}
		}
		chunked := false
		for _, sp := range d.Obs.Tracer.TraceSpans(0) {
			chunked = chunked || sp.Name == obs.SpanStoreWrite
		}
		if !chunked {
			t.Error("no chunk of two messages was flushed: the test holds no window")
		}
	})
}

// TestCacheDeleteInFlightNotServed: a reader polls a node and its parent's
// child list while the node's delete is in flight. The delete is fenced
// before its store op, so once any read has shown the node gone — the
// node read itself, or the parent's child list, installed after its
// rewrite — no read serves the node again.
func TestCacheDeleteInFlightNotServed(t *testing.T) {
	runLegDelayed(t, 32, func(k *sim.Kernel, d *core.Deployment, h *legDelay) {
		w, r := mustConnect(t, d, "w"), mustConnect(t, d, "r")
		defer w.Close()
		defer r.Close()
		for _, p := range []string{"/dir", "/dir/d"} {
			if _, err := w.Create(p, []byte("v"), 0); err != nil {
				t.Errorf("create %s: %v", p, err)
				return
			}
		}
		if _, _, err := r.GetData("/dir/d"); err != nil {
			t.Errorf("warm read: %v", err)
			return
		}
		f := w.submitWrite(core.OpDelete, "/dir/d", nil, -1, 0)
		gone, served := false, 0
		for !f.Done() {
			kids, err := r.GetChildren("/dir")
			if err != nil {
				t.Errorf("children of /dir: %v", err)
				return
			}
			gone = gone || !slices.Contains(kids, "d")
			_, _, err = r.GetData("/dir/d")
			switch {
			case errors.Is(err, core.ErrNoNode):
				gone = true
			case err != nil:
				t.Errorf("read /dir/d: %v", err)
				return
			case gone:
				t.Error("/dir/d served after a read showed it gone")
				return
			default:
				served++
			}
			k.Sleep(time.Millisecond / 2)
		}
		if resp := f.Wait(); resp.Code != core.CodeOK {
			t.Errorf("delete: %s", resp.Code)
			return
		}
		if !gone || served == 0 {
			t.Errorf("gone=%v after %d reads of the node: the test holds no window", gone, served)
		}
		if _, _, err := r.GetData("/dir/d"); !errors.Is(err, core.ErrNoNode) {
			t.Errorf("read after the delete answered = %v, want ErrNoNode", err)
		}
	})
}

// TestCacheHotNodeHitDuringItsFlush: a node read while its own write is
// being flushed — after the store write started, before the install
// landed — is a regional hit on the old value that reads nothing from the
// user store. Nothing invalidates a plain write's old entry first.
func TestCacheHotNodeHitDuringItsFlush(t *testing.T) {
	runLegDelayed(t, 33, func(k *sim.Kernel, d *core.Deployment, h *legDelay) {
		w, r := mustConnect(t, d, "w"), mustConnect(t, d, "r")
		defer w.Close()
		defer r.Close()
		if _, err := w.Create("/hot", []byte("v0"), 0); err != nil {
			t.Errorf("create: %v", err)
			return
		}
		if data, _, err := r.GetData("/hot"); err != nil || string(data) != "v0" {
			t.Errorf("warm read = %q (%v)", data, err)
			return
		}
		before := len(h.ops)
		f := w.submitWrite(core.OpSetData, "/hot", []byte("v1"), -1, 0)
		for len(h.ops) == before {
			k.Sleep(time.Millisecond / 10)
		}
		// Half a held op after the leg's first op could end: the store
		// write has started (an invalidation ahead of it would have dropped
		// the entry by now), and an install behind it, a second held op,
		// cannot have landed.
		k.Sleep(h.ops[before] + legHold*3/2 - k.Now())
		storeReads := d.Env.Meter.Count("userkv.read")
		_, l2, _ := r.CacheStats()
		data, _, err := r.GetData("/hot")
		if err != nil || string(data) != "v0" {
			t.Errorf("read during the flush = %q (%v), want the old value v0", data, err)
		}
		if n := d.Env.Meter.Count("userkv.read") - storeReads; n != 0 {
			t.Errorf("the read made %d user-store reads, want 0", n)
		}
		if _, l2After, _ := r.CacheStats(); l2After != l2+1 {
			t.Errorf("the read was not a regional hit (%d -> %d)", l2, l2After)
		}
		if resp := f.Wait(); resp.Code != core.CodeOK {
			t.Errorf("set: %s", resp.Code)
			return
		}
		if data, _, err := r.GetData("/hot"); err != nil || string(data) != "v1" {
			t.Errorf("read after the write = %q (%v), want v1", data, err)
		}
	})
}

// TestCacheStaleEpochRejection: once a delivered notification raises the
// session's shard MRD, a cached entry older than the MRD must miss — a
// single ZooKeeper server that has applied the notifying transaction would
// never answer from an older state.
func TestCacheStaleEpochRejection(t *testing.T) {
	runCached(t, 2, cachedCfg(), func(k *sim.Kernel, d *core.Deployment) {
		a, err := Connect(d, "a", d.Cfg.Profile.Home)
		if err != nil {
			t.Fatalf("connect a: %v", err)
		}
		defer a.Close()
		b, err := Connect(d, "b", d.Cfg.Profile.Home)
		if err != nil {
			t.Fatalf("connect b: %v", err)
		}
		defer b.Close()
		if _, err := a.Create("/cold", []byte("old"), 0); err != nil {
			t.Fatalf("create cold: %v", err)
		}
		if _, err := a.Create("/hot", []byte("h0"), 0); err != nil {
			t.Fatalf("create hot: %v", err)
		}
		// Warm a's caches for /cold and leave a data watch on /hot.
		fired := false
		if _, _, err := a.GetDataW("/hot", func(core.Notification) { fired = true }); err != nil {
			t.Fatalf("watch hot: %v", err)
		}
		if _, _, err := a.GetData("/cold"); err != nil {
			t.Fatalf("read cold: %v", err)
		}
		if _, _, err := a.GetData("/cold"); err != nil {
			t.Fatalf("read cold: %v", err)
		}
		_, _, missesBefore := a.CacheStats()
		mrdBefore := a.MRD()
		// b's write fires a's watch; the delivered notification raises
		// a's MRD above /cold's cached mzxid.
		if _, err := b.SetData("/hot", []byte("h1"), -1); err != nil {
			t.Fatalf("write hot: %v", err)
		}
		k.Sleep(5 * time.Second)
		if !fired {
			t.Fatal("watch notification not delivered")
		}
		if a.MRD() <= mrdBefore {
			t.Fatalf("MRD did not advance: %d", a.MRD())
		}
		data, _, err := a.GetData("/cold")
		if err != nil {
			t.Fatalf("read cold after MRD advance: %v", err)
		}
		if string(data) != "old" {
			t.Fatalf("cold data corrupted: %q", data)
		}
		if _, _, misses := a.CacheStats(); misses != missesBefore+1 {
			t.Errorf("cached /cold (older than the shard MRD) must miss: misses %d -> %d",
				missesBefore, misses)
		}
	})
}

// TestCacheReadYourWrites: a session's own committed write must be visible
// through the cache tier immediately (the response raises the per-path
// last-seen floor above the cached copy).
func TestCacheReadYourWrites(t *testing.T) {
	runCached(t, 3, cachedCfg(), func(k *sim.Kernel, d *core.Deployment) {
		c, err := Connect(d, "s", d.Cfg.Profile.Home)
		if err != nil {
			t.Fatalf("connect: %v", err)
		}
		defer c.Close()
		if _, err := c.Create("/n", []byte("v0"), 0); err != nil {
			t.Fatalf("create: %v", err)
		}
		for i := 1; i <= 5; i++ {
			// Cache the current version, overwrite it, read it back.
			if _, _, err := c.GetData("/n"); err != nil {
				t.Fatalf("warm read %d: %v", i, err)
			}
			want := fmt.Sprintf("v%d", i)
			if _, err := c.SetData("/n", []byte(want), -1); err != nil {
				t.Fatalf("write %d: %v", i, err)
			}
			data, st, err := c.GetData("/n")
			if err != nil {
				t.Fatalf("read %d: %v", i, err)
			}
			if string(data) != want {
				t.Fatalf("read-your-writes violated: got %q, want %q", data, want)
			}
			if st.Version != int32(i) {
				t.Fatalf("version = %d, want %d", st.Version, i)
			}
		}
	})
}

// TestCacheCreateDeleteChildrenVisible: the parent's cached child list is
// refreshed after the session's own create and delete (the response also
// raises the parent's floor — a child change rewrites the parent object
// without touching the parent's mzxid).
func TestCacheCreateDeleteChildrenVisible(t *testing.T) {
	runCached(t, 4, cachedCfg(), func(k *sim.Kernel, d *core.Deployment) {
		c, err := Connect(d, "s", d.Cfg.Profile.Home)
		if err != nil {
			t.Fatalf("connect: %v", err)
		}
		defer c.Close()
		if _, err := c.Create("/p", nil, 0); err != nil {
			t.Fatalf("create parent: %v", err)
		}
		if kids, err := c.GetChildren("/p"); err != nil || len(kids) != 0 {
			t.Fatalf("initial children: %v %v", kids, err)
		}
		if _, err := c.Create("/p/c", []byte("x"), 0); err != nil {
			t.Fatalf("create child: %v", err)
		}
		kids, err := c.GetChildren("/p")
		if err != nil || len(kids) != 1 || kids[0] != "c" {
			t.Fatalf("children after create = %v (%v), want [c]", kids, err)
		}
		if err := c.Delete("/p/c", -1); err != nil {
			t.Fatalf("delete child: %v", err)
		}
		if kids, err := c.GetChildren("/p"); err != nil || len(kids) != 0 {
			t.Fatalf("children after delete = %v (%v), want []", kids, err)
		}
	})
}

// TestCacheDeletedNodeNotServed: a session that deleted a node must not be
// served its cached copy afterwards.
func TestCacheDeletedNodeNotServed(t *testing.T) {
	runCached(t, 5, cachedCfg(), func(k *sim.Kernel, d *core.Deployment) {
		c, err := Connect(d, "s", d.Cfg.Profile.Home)
		if err != nil {
			t.Fatalf("connect: %v", err)
		}
		defer c.Close()
		if _, err := c.Create("/gone", []byte("x"), 0); err != nil {
			t.Fatalf("create: %v", err)
		}
		if _, _, err := c.GetData("/gone"); err != nil {
			t.Fatalf("warm read: %v", err)
		}
		if err := c.Delete("/gone", -1); err != nil {
			t.Fatalf("delete: %v", err)
		}
		if _, _, err := c.GetData("/gone"); !errors.Is(err, core.ErrNoNode) {
			t.Fatalf("read after delete = %v, want ErrNoNode", err)
		}
	})
}

// TestCacheSingleSystemImageAcrossPaths: once a session observes system
// state at some transaction, a read of ANY path must not return a version
// superseded by an earlier transaction on the same shard. The regional
// node holds it because the leader installs each object right after its
// store write, so the node never lags the store by more than the one
// write in flight.
func TestCacheSingleSystemImageAcrossPaths(t *testing.T) {
	runCached(t, 8, cachedCfg(), func(k *sim.Kernel, d *core.Deployment) {
		w, err := Connect(d, "w", d.Cfg.Profile.Home)
		if err != nil {
			t.Fatalf("connect w: %v", err)
		}
		defer w.Close()
		r, err := Connect(d, "r", d.Cfg.Profile.Home)
		if err != nil {
			t.Fatalf("connect r: %v", err)
		}
		defer r.Close()
		if _, err := w.Create("/b", []byte("b0"), 0); err != nil {
			t.Fatalf("create /b: %v", err)
		}
		if _, err := w.Create("/a", []byte("a0"), 0); err != nil {
			t.Fatalf("create /a: %v", err)
		}
		// The reader reads /b's old version through the cache.
		if _, _, err := r.GetData("/b"); err != nil {
			t.Fatalf("warm read /b: %v", err)
		}
		// Another session advances the system: /b first, /a after.
		if _, err := w.SetData("/b", []byte("b1"), -1); err != nil {
			t.Fatalf("write /b: %v", err)
		}
		if _, err := w.SetData("/a", []byte("a1"), -1); err != nil {
			t.Fatalf("write /a: %v", err)
		}
		k.Sleep(time.Second)
		// Observing /a's update commits the reader to a system state that
		// already includes /b's earlier overwrite...
		if data, _, err := r.GetData("/a"); err != nil || string(data) != "a1" {
			t.Fatalf("read /a = %q (%v), want a1", data, err)
		}
		// ...so /b@b0 must not be served.
		data, _, err := r.GetData("/b")
		if err != nil {
			t.Fatalf("read /b: %v", err)
		}
		if string(data) != "b1" {
			t.Fatalf("single system image violated: read /b = %q after observing the later /a update, want b1", data)
		}
	})
}

// TestCacheSingleSystemImageViaPzxid: observing a parent's child list
// also advances the session's view of system state (through pzxid, not
// mzxid — a child splice rewrites the parent without touching its own
// modification txid), so an older copy of an unrelated node must stop
// being served after it.
func TestCacheSingleSystemImageViaPzxid(t *testing.T) {
	runCached(t, 10, cachedCfg(), func(k *sim.Kernel, d *core.Deployment) {
		w, err := Connect(d, "w", d.Cfg.Profile.Home)
		if err != nil {
			t.Fatalf("connect w: %v", err)
		}
		defer w.Close()
		r, err := Connect(d, "r", d.Cfg.Profile.Home)
		if err != nil {
			t.Fatalf("connect r: %v", err)
		}
		defer r.Close()
		if _, err := w.Create("/p", nil, 0); err != nil {
			t.Fatalf("create /p: %v", err)
		}
		if _, err := w.Create("/c", []byte("c0"), 0); err != nil {
			t.Fatalf("create /c: %v", err)
		}
		if _, _, err := r.GetData("/c"); err != nil {
			t.Fatalf("warm read /c: %v", err)
		}
		// /c is overwritten BEFORE the child create, so any state that
		// includes child k also includes c1.
		if _, err := w.SetData("/c", []byte("c1"), -1); err != nil {
			t.Fatalf("write /c: %v", err)
		}
		if _, err := w.Create("/p/k", nil, 0); err != nil {
			t.Fatalf("create /p/k: %v", err)
		}
		k.Sleep(time.Second)
		kids, err := r.GetChildren("/p")
		if err != nil || !slices.Contains(kids, "k") {
			t.Fatalf("children = %v (%v), want k visible", kids, err)
		}
		data, _, err := r.GetData("/c")
		if err != nil {
			t.Fatalf("read /c: %v", err)
		}
		if string(data) != "c1" {
			t.Fatalf("single system image violated via pzxid: read /c = %q after observing /p/k, want c1", data)
		}
	})
}

// TestCacheWatchReadReturnsRegisteredState: a read that arms a watch must
// not be served a copy older than the registration — the change between
// that copy and the registration would never fire the watch, so the
// canonical read-then-wait-on-watch pattern would hold the stale value
// indefinitely. The data returned with the armed watch must be the
// committed state as of registration.
func TestCacheWatchReadReturnsRegisteredState(t *testing.T) {
	runCached(t, 9, cachedCfg(), func(k *sim.Kernel, d *core.Deployment) {
		w, err := Connect(d, "w", d.Cfg.Profile.Home)
		if err != nil {
			t.Fatalf("connect w: %v", err)
		}
		defer w.Close()
		r, err := Connect(d, "r", d.Cfg.Profile.Home)
		if err != nil {
			t.Fatalf("connect r: %v", err)
		}
		defer r.Close()
		if _, err := w.Create("/config", []byte("v0"), 0); err != nil {
			t.Fatalf("create: %v", err)
		}
		// r reads /config@v0 through the cache.
		if _, _, err := r.GetData("/config"); err != nil {
			t.Fatalf("warm read: %v", err)
		}
		// v1 commits without r noticing (no watch armed yet).
		if _, err := w.SetData("/config", []byte("v1"), -1); err != nil {
			t.Fatalf("write v1: %v", err)
		}
		k.Sleep(time.Second)
		fired := false
		data, _, err := r.GetDataW("/config", func(core.Notification) { fired = true })
		if err != nil {
			t.Fatalf("watch read: %v", err)
		}
		if string(data) != "v1" {
			t.Fatalf("watch read returned %q, want the state as of registration (v1)", data)
		}
		// The armed watch still fires on the next change.
		if _, err := w.SetData("/config", []byte("v2"), -1); err != nil {
			t.Fatalf("write v2: %v", err)
		}
		k.Sleep(5 * time.Second)
		if !fired {
			t.Error("watch armed by the read did not fire")
		}
	})
}

// TestCacheReadAfterWriteIsTimely: a read-only session with no watches sees
// another session's write well after it was answered (ZooKeeper's
// timeliness guarantee), though the session read the old value through the
// cache before: the leader installed the new one in the regional node.
func TestCacheReadAfterWriteIsTimely(t *testing.T) {
	runCached(t, 6, cachedCfg(), func(k *sim.Kernel, d *core.Deployment) {
		w, err := Connect(d, "w", d.Cfg.Profile.Home)
		if err != nil {
			t.Fatalf("connect w: %v", err)
		}
		defer w.Close()
		r, err := Connect(d, "r", d.Cfg.Profile.Home)
		if err != nil {
			t.Fatalf("connect r: %v", err)
		}
		defer r.Close()
		if _, err := w.Create("/t", []byte("v0"), 0); err != nil {
			t.Fatalf("create: %v", err)
		}
		if _, _, err := r.GetData("/t"); err != nil {
			t.Fatalf("warm read: %v", err)
		}
		if _, err := w.SetData("/t", []byte("v1"), -1); err != nil {
			t.Fatalf("write: %v", err)
		}
		k.Sleep(6 * time.Second) // past chaos.Timeliness
		data, _, err := r.GetData("/t")
		if err != nil {
			t.Fatalf("late read: %v", err)
		}
		if string(data) != "v1" {
			t.Fatalf("late read returned %q, want v1", data)
		}
	})
}

// TestCacheLossDropsFillFromBeforeIt: a reader's fire-and-forget refill of
// v1 is held in flight while the writer sets v2 — whose install raises the
// path's floor — and the cache node is lost, which wipes the floor. The
// held fill then lands on the restarted node. It carries the incarnation of
// the miss that caused it, from before the loss, so the node rejects it:
// a fresh session reads v2, as ZooKeeper's timeliness guarantee requires.
// Taken, the fill would serve v1 until the next write to the path.
func TestCacheLossDropsFillFromBeforeIt(t *testing.T) {
	cfg := core.Config{UserStore: core.StoreKV, CacheMode: core.CacheRegional}
	runCached(t, 41, cfg, func(k *sim.Kernel, d *core.Deployment) {
		rc := d.CacheFor(d.Cfg.Profile.Home)
		w, r := mustConnect(t, d, "w"), mustConnect(t, d, "r")
		defer w.Close()
		defer r.Close()
		if _, err := w.Create("/p", []byte("v1"), 0); err != nil {
			t.Errorf("create /p: %v", err)
			return
		}
		rc.Lose() // /p is no longer cached
		h := &procDelay{k: k, holds: []procHold{{"cache-fill-", 2 * time.Second}}}
		k.SetFaultHook(h)
		if data, _, err := r.GetData("/p"); err != nil || string(data) != "v1" {
			t.Errorf("read /p = %q (%v), want v1", data, err)
			return
		}
		if _, err := w.SetData("/p", []byte("v2"), -1); err != nil {
			t.Errorf("set /p: %v", err)
			return
		}
		if h.held == 0 {
			t.Error("no refill was held: the test holds no window")
			return
		}
		rc.Lose()
		k.Sleep(8 * time.Second) // the held fill lands
		f := mustConnect(t, d, "f")
		defer f.Close()
		if data, _, err := f.GetData("/p"); err != nil || string(data) != "v2" {
			t.Errorf("a fresh session reads /p = %q (%v) long after v2 was answered, want v2", data, err)
		}
	})
}

// TestCacheShardedRootChildrenVisible: top-level creates on a sharded
// deployment rebuild the shared root from several shard leaders, possibly
// out of txid order — two different root contents can share one freshness
// value. Every creator must still see its own child through the cache
// tier, and a fresh session must see all of them (the shared root is read
// from the store, past the cache).
func TestCacheShardedRootChildrenVisible(t *testing.T) {
	for _, seed := range []int64{21, 22, 23} {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			cfg := cachedCfg()
			cfg.WriteShards = 4
			runCached(t, seed, cfg, func(k *sim.Kernel, d *core.Deployment) {
				const writers = 4
				clients := make([]*Client, writers)
				for i := range clients {
					c, err := Connect(d, fmt.Sprintf("w%d", i), d.Cfg.Profile.Home)
					if err != nil {
						t.Fatalf("connect %d: %v", i, err)
					}
					clients[i] = c
					// Warm each session's root copy so the race has a
					// cached victim to serve.
					if _, err := c.GetChildren("/"); err != nil {
						t.Fatalf("warm root read %d: %v", i, err)
					}
				}
				wg := sim.NewWaitGroup(k)
				for i := range clients {
					i := i
					wg.Add(1)
					k.Go(fmt.Sprintf("creator-%d", i), func() {
						defer wg.Done()
						if _, err := clients[i].Create(fmt.Sprintf("/top%d", i), nil, 0); err != nil {
							t.Errorf("create %d: %v", i, err)
							return
						}
						kids, err := clients[i].GetChildren("/")
						if err != nil {
							t.Errorf("children %d: %v", i, err)
							return
						}
						if !slices.Contains(kids, fmt.Sprintf("top%d", i)) {
							t.Errorf("creator %d does not see its own top-level node in %v", i, kids)
						}
					})
				}
				wg.Wait()
				fresh, err := Connect(d, "fresh", d.Cfg.Profile.Home)
				if err != nil {
					t.Fatalf("connect fresh: %v", err)
				}
				kids, err := fresh.GetChildren("/")
				if err != nil {
					t.Fatalf("fresh children: %v", err)
				}
				for i := 0; i < writers; i++ {
					if !slices.Contains(kids, fmt.Sprintf("top%d", i)) {
						t.Errorf("fresh session misses top%d in %v", i, kids)
					}
				}
				fresh.Close()
				for _, c := range clients {
					c.Close()
				}
			})
		})
	}
}

// TestCacheShardedRootReadYourWritesLowTxid pins the low-txid variant of
// the shared-root race: a session reads the root at a pzxid minted by
// another shard's HIGH txid, then its own top-level create lands on a
// lightly-loaded shard with a LOWER txid. No floor derived from that txid
// can fence a cached copy (cross-shard txids carry no order), so the
// shared root is never served from a cache.
func TestCacheShardedRootReadYourWritesLowTxid(t *testing.T) {
	cfg := cachedCfg()
	cfg.WriteShards = 4
	runCached(t, 31, cfg, func(k *sim.Kernel, d *core.Deployment) {
		// Computed shard-specific top-level names (never hard-coded).
		nameOn := func(shard, skip int) string {
			for i := 0; ; i++ {
				p := fmt.Sprintf("/ryw%d", i)
				if core.ShardOf(p, 4) == shard {
					if skip == 0 {
						return p
					}
					skip--
				}
			}
		}
		w, err := Connect(d, "w", d.Cfg.Profile.Home)
		if err != nil {
			t.Fatalf("connect w: %v", err)
		}
		defer w.Close()
		s, err := Connect(d, "s", d.Cfg.Profile.Home)
		if err != nil {
			t.Fatalf("connect s: %v", err)
		}
		defer s.Close()
		// Inflate shard 1's txids with several creates; shard 0's leader
		// queue stays untouched, so its next txid is small.
		for i := 0; i < 4; i++ {
			if _, err := w.Create(nameOn(1, i), nil, 0); err != nil {
				t.Fatalf("create on busy shard: %v", err)
			}
		}
		// The session reads the root at the busy shard's high pzxid.
		if _, err := s.GetChildren("/"); err != nil {
			t.Fatalf("warm root read: %v", err)
		}
		// Its own create routes to idle shard 0 and mints a lower txid.
		own := nameOn(0, 0)
		if _, err := s.Create(own, nil, 0); err != nil {
			t.Fatalf("own create: %v", err)
		}
		kids, err := s.GetChildren("/")
		if err != nil {
			t.Fatalf("children after own create: %v", err)
		}
		if !slices.Contains(kids, own[1:]) {
			t.Fatalf("read-your-writes violated: own top-level node %s missing from %v", own, kids)
		}
		// Same for the session's own delete.
		if err := s.Delete(own, -1); err != nil {
			t.Fatalf("own delete: %v", err)
		}
		if kids, err := s.GetChildren("/"); err != nil || slices.Contains(kids, own[1:]) {
			t.Fatalf("own deleted node still listed: %v (%v)", kids, err)
		}
	})
}

// TestCacheSharedRootNotServedAfterLoss: a regional cache node that lost
// its floors, and a reader's refill of the root held across a top-level
// create on the shard whose txids run far behind. The create's rebuild of
// the root carries a txid below the held copy's freshness, so no scalar
// floor can fence the stale copy: until the shared root was read from the
// store, the refill landed and both the creator and a fresh session read a
// root without the new node, until the root's next change.
func TestCacheSharedRootNotServedAfterLoss(t *testing.T) {
	cfg := core.Config{UserStore: core.StoreKV, CacheMode: core.CacheRegional, WriteShards: 2}
	paths := shardedPaths(2, 3) // on shards 0, 1 and 0 of two
	a0, wp, a1 := paths[0], paths[1], paths[2]
	runCached(t, 1, cfg, func(k *sim.Kernel, d *core.Deployment) {
		a, w, r := mustConnect(t, d, "a"), mustConnect(t, d, "w"), mustConnect(t, d, "r")
		defer a.Close()
		defer w.Close()
		defer r.Close()
		for _, p := range []string{a0, a1} {
			if _, err := a.Create(p, nil, 0); err != nil {
				t.Errorf("create %s: %v", p, err)
			}
			for i := 0; i < 20; i++ {
				if _, err := a.SetData(p, []byte{byte(i)}, -1); err != nil {
					t.Errorf("set %s: %v", p, err)
				}
			}
		}
		d.CacheFor(d.Cfg.Profile.Home).Lose()
		h := &procDelay{k: k, holds: []procHold{{"cache-fill-", 2 * time.Second}}}
		k.SetFaultHook(h)
		if _, err := r.GetChildren("/"); err != nil {
			t.Errorf("read /: %v", err)
		}
		if _, err := w.Create(wp, nil, 0); err != nil {
			t.Errorf("create %s: %v", wp, err)
		}
		k.Sleep(3 * time.Second) // any held refill lands
		f := mustConnect(t, d, "f")
		defer f.Close()
		for _, c := range []*Client{w, f} {
			if kids, err := c.GetChildren("/"); err != nil || !slices.Contains(kids, wp[1:]) {
				t.Errorf("%s reads / = %v (%v) after the create of %s was answered", c.id, kids, err, wp)
			}
		}
	})
}

// TestCacheSessionFloorsStayBounded: a cached session that reads more
// distinct paths than lastSeenCap keeps at most lastSeenCap per-path floors:
// the older half folds into one session-wide floor (see). A folded path's
// cached entry sits below that floor, so its next read falls through to the
// store, and every path's reads stay monotonic.
func TestCacheSessionFloorsStayBounded(t *testing.T) {
	const paths = lastSeenCap + 100
	runCached(t, 5, cachedCfg(), func(k *sim.Kernel, d *core.Deployment) {
		store := d.StoreFor(d.Cfg.Profile.Home)
		for i := 0; i < paths; i++ {
			txid := int64(i + 1)
			store.Seed(&znode.Node{Path: fmt.Sprintf("/n%d", i), Data: []byte("v"), Stat: znode.Stat{Czxid: txid, Mzxid: txid, Pzxid: txid}})
		}
		c, err := Connect(d, "s", d.Cfg.Profile.Home)
		if err != nil {
			t.Fatalf("connect: %v", err)
		}
		defer c.Close()
		seen := make([]int64, paths)
		read := func(i int) {
			_, st, err := c.GetData(fmt.Sprintf("/n%d", i))
			if err != nil {
				t.Fatalf("read /n%d: %v", i, err)
			}
			if st.Mzxid < seen[i] {
				t.Errorf("/n%d: mzxid %d after %d", i, st.Mzxid, seen[i])
			}
			seen[i] = st.Mzxid
		}
		for i := 0; i < paths; i++ {
			read(i)
		}
		if len(c.lastSeen) > lastSeenCap || c.seenFloor == 0 {
			t.Fatalf("%d per-path floors, session floor %d: want at most %d and a fold", len(c.lastSeen), c.seenFloor, lastSeenCap)
		}
		k.Sleep(time.Second) // the refills land
		_, hits, misses := c.CacheStats()
		read(0)         // folded: its entry is below the session floor
		read(paths - 1) // kept: its entry is at its own floor
		if _, h, m := c.CacheStats(); m != misses+1 || h != hits+1 {
			t.Errorf("re-reads: %d hits %d misses, want the folded path to miss and the kept one to hit", h-hits, m-misses)
		}
	})
}

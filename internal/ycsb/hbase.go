package ycsb

import (
	"fmt"
	"math/rand"
	"time"

	"faaskeeper/internal/cloud"
	"faaskeeper/internal/core"
	"faaskeeper/internal/sim"
	"faaskeeper/internal/zk"
	"faaskeeper/internal/znode"
)

// newRand builds a per-thread deterministic source; the simulation is
// single-threaded, so plain rand.Rand values are safe.
func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// HBaseCluster models the HBase deployment of Section 5.1: region servers
// that serve reads/writes from memory+disk, coordinated through ZooKeeper.
// ZooKeeper holds only cluster state — master election, region-server
// membership (ephemeral nodes), and the meta-region location — so a YCSB
// run drives thousands of requests per second through HBase while
// ZooKeeper sees almost nothing.
type HBaseCluster struct {
	env *cloud.Env
	ens *zk.Ensemble

	master  *zk.Client
	servers []*regionServer

	opLatency sim.Dist
	ops       int64
}

type regionServer struct {
	id      int
	session *zk.Client
}

// NewHBaseCluster boots a cluster with n region servers, performing the
// same ZooKeeper setup traffic a real HBase start-up produces (~29 small
// nodes in the paper's profile). Must be called from a sim process.
func NewHBaseCluster(env *cloud.Env, ens *zk.Ensemble, n int) (*HBaseCluster, error) {
	h := &HBaseCluster{
		env: env, ens: ens,
		opLatency: sim.Q(0.3, 0.9, 2.5, 6.0, 40), // region-server op, ms
	}
	m, err := zk.Connect(ens, 0)
	if err != nil {
		return nil, err
	}
	h.master = m
	// The znode layout HBase creates at start-up.
	for _, p := range []string{
		"/hbase", "/hbase/rs", "/hbase/splitWAL", "/hbase/table",
		"/hbase/master-maintenance", "/hbase/online-snapshot",
		"/hbase/flush-table-proc", "/hbase/replication",
	} {
		if _, err := m.Create(p, nil, 0); err != nil {
			return nil, fmt.Errorf("hbase setup %s: %w", p, err)
		}
	}
	// Master election and meta location: small ephemeral/data nodes.
	if _, err := m.Create("/hbase/master", []byte("master:16000"), znode.FlagEphemeral); err != nil {
		return nil, err
	}
	if _, err := m.Create("/hbase/meta-region-server", []byte("rs0:16020"), 0); err != nil {
		return nil, err
	}
	// The master watches region-server membership.
	if _, err := m.GetChildrenW("/hbase/rs", func(core.Notification) {
		// Re-arm on membership change, as the real master does.
		m.GetChildrenW("/hbase/rs", func(core.Notification) {})
	}); err != nil {
		return nil, err
	}
	for i := 0; i < n; i++ {
		sess, err := zk.Connect(ens, i%ens.Servers())
		if err != nil {
			return nil, err
		}
		// Each RegionServer registers an ephemeral node with its address —
		// the ~320-byte nodes observed in the paper.
		addr := fmt.Sprintf("rs%d.cluster.internal:16020,%d", i, i)
		if _, err := sess.Create(fmt.Sprintf("/hbase/rs/rs%d", i),
			[]byte(addr), znode.FlagEphemeral); err != nil {
			return nil, err
		}
		// Each RS records a small amount of state under /hbase/table.
		if _, err := sess.Create(fmt.Sprintf("/hbase/table/t%d", i), []byte("ENABLED"), 0); err != nil {
			return nil, err
		}
		h.servers = append(h.servers, &regionServer{id: i, session: sess})
	}
	return h, nil
}

// Do executes one YCSB operation against the serving layer. ZooKeeper is
// not on the data path; only a rare region-cache miss sends a client back
// to the meta-region-server node, producing the read trickle visible in
// the paper's Figure 5.
func (h *HBaseCluster) Do(op OpKind, key int64) {
	if h.env.K.Rand().Float64() < metaLookupProb {
		_, _, _ = h.master.GetData("/hbase/meta-region-server")
	}
	lat := h.opLatency.Sample(h.env.K.Rand())
	if op == OpScan {
		lat *= 4 // scans touch multiple rows
	}
	if op == OpReadModifyWrite {
		lat *= 2
	}
	h.env.K.Sleep(lat)
	h.ops++
}

// metaLookupProb calibrates ZooKeeper's read trickle to the paper's "less
// than a thousand requests in over half an hour" of YCSB traffic.
const metaLookupProb = 1.0 / 30000

// Ops returns the number of completed serving-layer operations.
func (h *HBaseCluster) Ops() int64 { return h.ops }

// Close shuts down sessions (removing the ephemeral registrations).
func (h *HBaseCluster) Close() {
	for _, rs := range h.servers {
		rs.session.Close()
	}
	h.master.Close()
}

// RunPhase drives one workload for the given duration with nThreads
// closed-loop clients, as the YCSB driver does.
func (h *HBaseCluster) RunPhase(w Workload, d time.Duration, nThreads int, records int64) {
	k := h.env.K
	wg := sim.NewWaitGroup(k)
	deadline := k.Now() + d
	for t := 0; t < nThreads; t++ {
		seed := int64(t)*7919 + 13
		wg.Go(fmt.Sprintf("ycsb-%s-%d", w.Name, t), func() {
			r := newRand(seed)
			kc := NewKeyChooser(records, w.Latest, r)
			for k.Now() < deadline {
				op := w.Next(r)
				key := kc.Next()
				if op == OpInsert {
					key = kc.Insert()
				}
				h.Do(op, key)
			}
		})
	}
	wg.Wait()
}

package fkclient

// End-to-end tests of cost attribution (package obs cost ledger): the
// no-drift guard (cost accounting must not move the golden virtual-time
// trace), and obs.Hub.Verify's rules across every pipeline variant — the
// sum of per-request span costs equals each request's client-billed total
// equals the ledger's global delta, with no double-billed or orphaned
// charges, and on the traced rows every request is one telescoping span
// tree.

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"faaskeeper/internal/core"
	"faaskeeper/internal/obs"
	"faaskeeper/internal/sim"
	"faaskeeper/internal/txn"
)

// TestCostOffTraceByteIdentical mirrors the telemetry no-drift guard:
// dollar attribution is pure bookkeeping, so enabling it (with or without
// span recording) must not move a single virtual timestamp of the golden
// workload.
func TestCostOffTraceByteIdentical(t *testing.T) {
	base := traceWorkload(t, core.Config{})
	costed := traceWorkload(t, core.Config{CostAccounting: true})
	if !bytes.Equal(base, costed) {
		t.Fatalf("CostAccounting:true shifted the virtual-time trace:\n--- off ---\n%s--- on ---\n%s", base, costed)
	}
	both := traceWorkload(t, core.Config{CostAccounting: true, Telemetry: true})
	if !bytes.Equal(base, both) {
		t.Fatalf("CostAccounting+Telemetry shifted the virtual-time trace:\n--- off ---\n%s--- on ---\n%s", base, both)
	}
}

// costConfigs is the conservation matrix: batching x caching x txn x
// sharding, each with and without span recording (the ledger must
// conserve without a tracer to lean on). The traced rows check the span
// rules too.
var costConfigs = []struct {
	name   string
	cfg    core.Config
	multis bool // the workload issues multi() transactions
}{
	{"plain", core.Config{CostAccounting: true}, false},
	{"plain-traced", core.Config{CostAccounting: true, Telemetry: true}, false},
	{"sharded", core.Config{CostAccounting: true, WriteShards: 4}, false},
	{"batched", core.Config{CostAccounting: true, WriteShards: 2, BatchWrites: true}, false},
	{"batched-traced", core.Config{CostAccounting: true, Telemetry: true, WriteShards: 2, BatchWrites: true}, false},
	{"cached", core.Config{CostAccounting: true, CacheMode: core.CacheTwoLevel}, false},
	{"cached-traced", core.Config{CostAccounting: true, Telemetry: true, CacheMode: core.CacheTwoLevel}, false},
	{"txn", core.Config{CostAccounting: true, WriteShards: 4}, true},
	{"txn-traced", core.Config{CostAccounting: true, Telemetry: true, WriteShards: 4}, true},
	{"txn-batched-traced", core.Config{CostAccounting: true, Telemetry: true, WriteShards: 2, BatchWrites: true}, true},
}

// TestCostConservationRandomized runs a seeded random workload (pipelined
// writes, reads, watches, failures, multis committed or answered
// cross_shard) over the config matrix and checks that every charged
// picodollar is attributed exactly once and, on the traced rows, that
// every request forms one connected, telescoping span tree with every
// span closed exactly once.
func TestCostConservationRandomized(t *testing.T) {
	for _, tc := range costConfigs {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			run(t, 424242, tc.cfg, func(k *sim.Kernel, d *core.Deployment) {
				rng := rand.New(rand.NewSource(7))
				c := mustConnect(t, d, "cost")
				paths := make([]string, 6)
				for i := range paths {
					paths[i] = fmt.Sprintf("/r%d", i)
					if _, err := c.Create(paths[i], []byte("seed"), 0); err != nil {
						t.Fatalf("seed create %s: %v", paths[i], err)
					}
				}
				var futs []*sim.Future[core.Response]
				for i := 0; i < 40; i++ {
					p := paths[rng.Intn(len(paths))]
					switch rng.Intn(7) {
					case 0:
						futs = append(futs, c.submitWrite(core.OpSetData, p, []byte(fmt.Sprint(i)), -1, 0))
					case 1:
						futs = append(futs, c.submitWrite(core.OpCreate, p+fmt.Sprintf("/c%d", i), nil, -1, 0))
					case 2:
						// A doomed write: its charges still conserve.
						futs = append(futs, c.submitWrite(core.OpSetData, p, nil, 9999, 0))
					case 3:
						_, _, _ = c.GetDataW(p, func(core.Notification) {})
					case 4:
						_, _, _ = c.GetData(p)
					case 5:
						if tc.multis {
							q := paths[(rng.Intn(len(paths)-1)+1)%len(paths)]
							_, _ = c.Multi(
								txn.SetData(p, []byte("m"), -1),
								txn.SetData(q, []byte("m"), -1),
							)
						}
					default:
						futs = append(futs, c.submitWrite(core.OpSetData, p, []byte("w"), -1, 0))
					}
				}
				for _, f := range futs {
					f.Wait()
				}
				if err := c.Close(); err != nil {
					t.Fatalf("close: %v", err)
				}
				if d.Obs.Cost.TotalPd() == 0 {
					t.Fatal("workload charged nothing")
				}
				for _, f := range d.Obs.Verify() {
					t.Error(f)
				}
			})
		})
	}
}

// TestCostPrometheusSeries checks the exported registry carries the cost
// series the CI smoke greps for.
func TestCostPrometheusSeries(t *testing.T) {
	run(t, 11, core.Config{CostAccounting: true}, func(k *sim.Kernel, d *core.Deployment) {
		c := mustConnect(t, d, "prom")
		if _, err := c.Create("/p", []byte("v"), 0); err != nil {
			t.Fatalf("create: %v", err)
		}
		if _, _, err := c.GetData("/p"); err != nil {
			t.Fatalf("get: %v", err)
		}
		var buf bytes.Buffer
		if err := obs.WritePrometheus(&buf, d.Obs.Metrics); err != nil {
			t.Fatalf("prometheus export: %v", err)
		}
		for _, want := range []string{"fk_cost_pd_", "fk_cost_per1m_"} {
			if !bytes.Contains(buf.Bytes(), []byte(want)) {
				t.Fatalf("prometheus dump missing %s series:\n%s", want, buf.String())
			}
		}
	})
}

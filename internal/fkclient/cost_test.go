package fkclient

// End-to-end tests of cost attribution (package obs cost ledger): the
// no-drift guard (cost accounting must not move the golden virtual-time
// trace) and the exported series. obs.Hub.Verify's conservation rules run
// on chaos's traced and cost-only seeds, on every matrix row under faults.

import (
	"bytes"
	"testing"

	"faaskeeper/internal/core"
	"faaskeeper/internal/obs"
	"faaskeeper/internal/sim"
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

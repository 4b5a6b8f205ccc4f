package core

import (
	"testing"

	"faaskeeper/internal/cloud"
	"faaskeeper/internal/sim"
)

// TestCostOffBillersAllocateNothing pins the cost-attribution call sites
// to the same budget as the telemetry hooks: with CostAccounting off,
// every bill* helper must return its context untouched without
// allocating — the pipeline pays nothing for instrumentation it is not
// using.
func TestCostOffBillersAllocateNothing(t *testing.T) {
	k := sim.NewKernel(1)
	d := NewDeployment(k, Config{})
	ctx := cloud.ClientCtx(d.Cfg.Profile.Home)
	req := Request{Session: "s", Seq: 1, Op: OpSetData, Path: "/a"}
	msg := leaderMsg{Session: "s", Seq: 1, change: change{Op: OpSetData, Path: "/a"}}
	if allocs := testing.AllocsPerRun(200, func() {
		c := d.billReq(ctx, req, 0)
		c = d.billMsg(c, msg)
		c = d.billSys(c, 0)
		c = d.billSpan(c, 1, 2, 0, "us")
		c = d.billFold(c, nil, 0, "")
		if c.Bill != nil {
			t.Fatal("cost-off biller attached a sink")
		}
		if d.invBill(nil, 0) != nil {
			t.Fatal("cost-off invocation sink non-nil")
		}
	}); allocs != 0 {
		t.Fatalf("cost-off billers allocated %.1f/op, want 0", allocs)
	}
	k.Shutdown()
}

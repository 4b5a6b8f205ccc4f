package costmodel

import (
	"math"
	"testing"

	"faaskeeper/internal/cloud"
)

func TestWorkedExamplesFromPaper(t *testing.T) {
	m := NewAWSModel(512)
	// "A workload of 100,000 read operations costs $0.04."
	if got := 100_000 * m.ReadCost(1024, false); math.Abs(got-0.04) > 0.001 {
		t.Errorf("100k reads = $%.4f, paper says $0.04", got)
	}
	// "A workload of 100,000 write operations costs $1.12."
	if got := 100_000 * m.WriteCost(1024, false); math.Abs(got-1.12) > 0.02 {
		t.Errorf("100k writes = $%.4f, paper says $1.12", got)
	}
	// "With hybrid storage ... 100,000 write operations costs $0.72."
	if got := 100_000 * m.WriteCost(1024, true); math.Abs(got-0.72) > 0.05 {
		t.Errorf("100k hybrid writes = $%.4f, paper says $0.72", got)
	}
}

func TestZooKeeperDailyCosts(t *testing.T) {
	p := cloud.AWSPricing()
	for _, c := range []struct {
		inst string
		want float64 // paper: $0.5 / $1 / $2 per VM per day
	}{
		{"t3.small", 0.5}, {"t3.medium", 1.0}, {"t3.large", 2.0},
	} {
		z := ZooKeeperDeployment{P: p, Servers: 1, InstanceType: c.inst}
		if got := z.VMDailyCost(); math.Abs(got-c.want) > 0.01 {
			t.Errorf("%s daily = %v, want %v", c.inst, got, c.want)
		}
	}
	z := ZooKeeperDeployment{P: p, Servers: 3, InstanceType: "t3.small", DiskGB: 20}
	if z.TotalDailyCost() <= z.VMDailyCost() {
		t.Error("block storage not charged")
	}
}

func TestFig14CornersMatchPaper(t *testing.T) {
	m := NewAWSModel(512)
	check := func(servers int, inst string, reqs, readFrac, want, tol float64, hybrid bool) {
		t.Helper()
		z := ZooKeeperDeployment{P: m.P, Servers: servers, InstanceType: inst, DiskGB: 20}
		got := m.CostRatio(z, reqs, readFrac, 1024, hybrid)
		if math.Abs(got-want) > tol {
			t.Errorf("%dx%s %g req %g%% reads hybrid=%v: ratio %.2f, paper %.2f",
				servers, inst, reqs, readFrac*100, hybrid, got, want)
		}
	}
	// Figure 14, 100% reads panel.
	check(3, "t3.small", 100_000, 1.0, 37.44, 1.0, false)
	check(9, "t3.large", 100_000, 1.0, 449.28, 12, false)
	check(3, "t3.small", 5_000_000, 1.0, 0.75, 0.05, false)
	check(3, "t3.small", 100_000, 1.0, 59.90, 2.0, true)
	check(9, "t3.large", 100_000, 1.0, 718.85, 20, true)
	// 90% reads panel.
	check(3, "t3.small", 100_000, 0.9, 10.14, 0.6, false)
	check(9, "t3.large", 5_000_000, 0.9, 2.43, 0.2, false)
	// 80% reads panel.
	check(3, "t3.small", 100_000, 0.8, 5.86, 0.4, false)
	check(3, "t3.small", 100_000, 0.8, 9.16, 0.8, true)
}

func TestBreakEvenMatchesPaperClaims(t *testing.T) {
	m := NewAWSModel(512)
	z := ZooKeeperDeployment{P: m.P, Servers: 3, InstanceType: "t3.small", DiskGB: 20}
	// "FaaSKeeper can process between 1 and 3.75 million requests daily
	// before the costs equal the smallest possible ZooKeeper deployment"
	// (high read-to-write mixes), growing to ~6M with hybrid reads.
	be100 := m.BreakEvenRequests(z, 1.0, 1024, false)
	if be100 < 3e6 || be100 > 4.2e6 {
		t.Errorf("break-even at 100%% reads = %.0f, want ~3.75M", be100)
	}
	be90 := m.BreakEvenRequests(z, 0.9, 1024, false)
	if be90 < 0.8e6 || be90 > 1.4e6 {
		t.Errorf("break-even at 90%% reads = %.0f, want ~1M", be90)
	}
	beHybrid := m.BreakEvenRequests(z, 1.0, 1024, true)
	if beHybrid < 5.5e6 || beHybrid > 6.5e6 {
		t.Errorf("hybrid break-even = %.0f, want ~5.99M", beHybrid)
	}
	if m.BreakEvenRequests(z, 1.0, 1024, false) >= math.Inf(1) {
		t.Error("break-even infinite")
	}
}

func TestStorageCurvesShape(t *testing.T) {
	p := cloud.AWSPricing()
	bySize := StorageCostVsSize(p, []float64{0.01, 0.1, 1, 10})
	// Figure 4a: object writes 12.5x more expensive than reads; KV storage
	// on large data much more expensive than object storage.
	first := bySize[0]
	if r := (first.S3Write - 0.01*p.ObjectStorageGBMo) / (first.S3Read - 0.01*p.ObjectStorageGBMo); math.Abs(r-12.5) > 0.1 {
		t.Errorf("S3 write/read op ratio = %v", r)
	}
	last := bySize[len(bySize)-1]
	if last.KVRead <= last.S3Read {
		t.Error("KV storage should overtake S3 at 10 GB")
	}
	byOps := StorageCostVsOps(p, []float64{1e3, 1e5, 1e7})
	if byOps[2].S3Write < byOps[2].KVWrite {
		t.Error("frequent 1kB object writes should be costlier than KV writes")
	}
	if byOps[0].S3Write > byOps[2].S3Write {
		t.Error("cost must grow with ops")
	}
}

func TestFig14GridComplete(t *testing.T) {
	cells := Fig14(NewAWSModel(512), 1.0)
	// 5 request columns x 2 server counts x 3 instance types x 2 storage modes.
	if len(cells) != 60 {
		t.Fatalf("grid size = %d", len(cells))
	}
	for _, c := range cells {
		if c.Ratio <= 0 || math.IsNaN(c.Ratio) {
			t.Fatalf("bad ratio in cell %+v", c)
		}
	}
	// Monotonic: more requests -> lower ratio.
	if cells[0].Ratio <= cells[4].Ratio {
		t.Error("ratio should fall as volume grows")
	}
}

func TestHeartbeatDailyCostSmall(t *testing.T) {
	m := NewAWSModel(512)
	// 1/min for 24h at ~100ms, 128 MB: a fraction of a cent (Figure 13
	// reports 0.1-0.25 cents).
	cost := m.HeartbeatDailyCost(0.1, 128, 1440, 64*100)
	if cost <= 0 || cost > 0.01 {
		t.Errorf("heartbeat daily = $%.5f, want under a cent", cost)
	}
	vm := cloud.AWSPricing().VMDailyCost("t3.small", 1)
	if cost > vm/50 {
		t.Errorf("heartbeat (%v) should be a tiny fraction of a VM (%v)", cost, vm)
	}
}

func TestGCPModelWriteCheaperQueueCostlierKV(t *testing.T) {
	aws := NewAWSModel(512)
	gcp := Model{P: cloud.GCPPricing(), FollowerSeconds: 0.04, LeaderSeconds: 0.09, MemoryMB: 512}
	// Datastore ops are flat-priced: a hybrid (KV) write of 64 kB costs
	// the same as 1 kB on GCP, unlike AWS.
	if gcp.P.KVWriteCost(64*1024) != gcp.P.KVWriteCost(1024) {
		t.Error("Datastore write should be size-independent")
	}
	if aws.P.KVWriteCost(64*1024) <= aws.P.KVWriteCost(1024) {
		t.Error("DynamoDB write must grow with size")
	}
	// Pub/Sub small messages are much cheaper than SQS.
	if gcp.P.QueueMsgCost(64) >= aws.P.QueueMsgCost(64) {
		t.Error("Pub/Sub small message should be cheaper than SQS")
	}
}

func TestCachedReadCostScalesWithHitRatio(t *testing.T) {
	m := NewAWSModel(512)
	full := m.ReadCost(1024, true)
	if got := m.CachedReadCost(0, 1024, true); got != full {
		t.Errorf("0%% hits should cost a full read: $%v vs $%v", got, full)
	}
	if got := m.CachedReadCost(1, 1024, true); got != 0 {
		t.Errorf("100%% hits should be per-op free, got $%v", got)
	}
	lo, hi := m.CachedReadCost(0.9, 1024, true), m.CachedReadCost(0.5, 1024, true)
	if !(lo < hi && hi < full) {
		t.Errorf("cached read cost not monotone in miss ratio: %v %v %v", lo, hi, full)
	}
	// Out-of-range ratios clamp instead of going negative.
	if m.CachedReadCost(1.5, 1024, true) != 0 || m.CachedReadCost(-1, 1024, true) != full {
		t.Error("hit ratio should clamp to [0,1]")
	}
}

func TestCacheBreakEven(t *testing.T) {
	m := NewAWSModel(512)
	be := m.CacheBreakEvenReads(0.9, 1024, true, 1)
	if math.IsInf(be, 1) || be <= 0 {
		t.Fatalf("break-even should be finite and positive, got %v", be)
	}
	// At the break-even read volume the cached deployment costs the same
	// as the uncached one (pure-read workload).
	plain := m.DailyCost(be, 1, 1024, true)
	cached := m.CachedDailyCost(be, 1, 0.9, 1024, true, 1)
	if diff := math.Abs(plain-cached) / plain; diff > 1e-9 {
		t.Errorf("costs at break-even differ: $%v vs $%v", plain, cached)
	}
	// A zero hit ratio never pays for the node.
	if !math.IsInf(m.CacheBreakEvenReads(0, 1024, true, 1), 1) {
		t.Error("0%% hit ratio should never break even")
	}
	// More regions cost proportionally more.
	if m.CacheNodeDailyCost(3) != 3*m.CacheNodeDailyCost(1) {
		t.Error("cache node cost should scale with regions")
	}
}

func TestBatchedWriteCost(t *testing.T) {
	m := NewAWSModel(2048)
	base := m.WriteCost(1024, false)
	// No folding (every write survives) still saves a little: the batch
	// shares one leader invocation's request fee.
	unfolded := m.BatchedWriteCost(10, 10, 1024, false)
	if unfolded > base {
		t.Errorf("unfolded batch $%.8f above per-message $%.8f", unfolded, base)
	}
	// Perfect folding on standard storage drops the dominant W_S3 term:
	// a hot-node batch of 10 must save well over a third per write
	// (Table 4: W_S3 is $5/M of the ~$11.2/M write).
	folded := m.BatchedWriteCost(10, 1, 1024, false)
	if folded > 0.65*base {
		t.Errorf("fully folded batch $%.8f, want <= 65%% of $%.8f", folded, base)
	}
	// Monotone in the fold outcome.
	prev := 0.0
	for w := 1; w <= 10; w++ {
		c := m.BatchedWriteCost(10, w, 1024, false)
		if c < prev {
			t.Fatalf("BatchedWriteCost not monotone in store writes at w=%d", w)
		}
		prev = c
	}
	// Degenerate inputs collapse to sensible bounds.
	if got := m.BatchedWriteCost(1, 1, 1024, false); got > base {
		t.Errorf("batch of one costs $%.8f, above per-message $%.8f", got, base)
	}
	if m.BatchedWriteCost(10, 0, 1024, false) != m.BatchedWriteCost(10, 10, 1024, false) {
		t.Error("storeWrites=0 must clamp to the unfolded batch")
	}
}

func TestBatchWriteSavingsAndBreakEven(t *testing.T) {
	m := NewAWSModel(2048)
	s := m.BatchWriteSavings(10, 1, 1024, false)
	if s <= 0.3 || s >= 1 {
		t.Errorf("perfect-fold savings = %.3f, want a large fraction below 1", s)
	}
	if hs := m.BatchWriteSavings(10, 1, 1024, true); hs >= s {
		t.Errorf("hybrid savings %.3f should trail standard %.3f (W_DD < W_S3 at 1 kB)", hs, s)
	}
	// The break-even fold ratio for a modest target must be reachable,
	// monotone in the target, and 0 for impossible targets.
	easy := m.BatchFoldBreakEven(10, 1024, false, 0.10)
	hard := m.BatchFoldBreakEven(10, 1024, false, 0.30)
	if easy <= 0 || easy > 1 || hard <= 0 {
		t.Fatalf("break-even ratios: easy=%.2f hard=%.2f", easy, hard)
	}
	if hard > easy {
		t.Errorf("stricter target needs more folding: hard=%.2f > easy=%.2f", hard, easy)
	}
	if m.BatchFoldBreakEven(10, 1024, false, 0.99) != 0 {
		t.Error("unreachable target must report 0")
	}
	if m.BatchFoldBreakEven(1, 1024, false, 0.1) != 0 {
		t.Error("a batch of one cannot fold")
	}
}

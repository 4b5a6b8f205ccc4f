// Package costmodel implements the paper's analytic cost model
// (Section 5.3.4, Table 4): per-operation read and write costs for
// FaaSKeeper with standard and hybrid storage, the constant daily cost of
// a provisioned ZooKeeper ensemble, the cost-ratio grids of Figure 14, and
// the storage-price curves of Figure 4a.
package costmodel

import (
	"math"

	"faaskeeper/internal/cloud"
)

// Model evaluates FaaSKeeper operation costs for one provider.
type Model struct {
	P cloud.Pricing

	// Function-execution profile used for F_W and F_D in Table 4: the
	// median runtimes of the follower and leader functions.
	FollowerSeconds float64
	LeaderSeconds   float64
	MemoryMB        int
	ARM             bool
}

// NewAWSModel returns the model with the paper's measured defaults:
// follower ~35 ms, leader ~65 ms (Table 3 medians at small payloads).
func NewAWSModel(memoryMB int) Model {
	if memoryMB <= 0 {
		memoryMB = 512
	}
	return Model{
		P:               cloud.AWSPricing(),
		FollowerSeconds: 0.035,
		LeaderSeconds:   0.065,
		MemoryMB:        memoryMB,
	}
}

// ReadCost returns the dollars for one read of s bytes: a single storage
// access (Cost_R = R_S3(s), or R_DD for hybrid storage).
func (m Model) ReadCost(sizeB int, hybrid bool) float64 {
	if hybrid {
		return m.P.KVReadCost(sizeB, true)
	}
	return m.P.ObjectReadCost(sizeB)
}

// WriteCost returns the dollars for one set_data of s bytes:
//
//	Cost_W = 2*Q(s) + 3*W_DD(1) + R_DD(1) + W_S3(s) + F_W + F_D
//
// Two queue messages (session queue + leader queue), three system-store
// writes (lock, commit+unlock, transaction pop), one system-store read
// (leader's node fetch), the user-store write, and both function
// executions. With hybrid storage W_S3(s) becomes W_DD(s).
func (m Model) WriteCost(sizeB int, hybrid bool) float64 {
	c := 2 * m.P.QueueMsgCost(sizeB)
	c += 3 * m.P.KVWriteCost(1)
	c += m.P.KVReadCost(1, true)
	c += m.P.StoreWriteCost(sizeB, hybrid)
	c += m.P.FaaSCost(m.MemoryMB, 1, m.FollowerSeconds, m.ARM)
	c += m.P.FaaSCost(m.MemoryMB, 1, m.LeaderSeconds, m.ARM)
	return c
}

// DailyCost returns FaaSKeeper's cost for a day of traffic.
func (m Model) DailyCost(requestsPerDay float64, readFraction float64, sizeB int, hybrid bool) float64 {
	reads := requestsPerDay * readFraction
	writes := requestsPerDay * (1 - readFraction)
	return reads*m.ReadCost(sizeB, hybrid) + writes*m.WriteCost(sizeB, hybrid)
}

// StorageDailyCost returns the cost of retaining gb of user data for one
// day (S3 for standard storage, DynamoDB for hybrid).
func (m Model) StorageDailyCost(gb float64, hybrid bool) float64 {
	rate := m.P.ObjectStorageGBMo
	if hybrid {
		rate = m.P.KVStorageGBMo
	}
	return rate * gb * 12 / 365
}

// ZooKeeperDeployment sizes the baseline.
type ZooKeeperDeployment struct {
	P            cloud.Pricing
	Servers      int
	InstanceType string
	DiskGB       float64 // block storage per VM
}

// VMDailyCost is the ensemble's compute cost per day (the quantity
// Figure 14 compares against).
func (z ZooKeeperDeployment) VMDailyCost() float64 {
	return z.P.VMDailyCost(z.InstanceType, z.Servers)
}

// TotalDailyCost adds the per-VM block storage.
func (z ZooKeeperDeployment) TotalDailyCost() float64 {
	return z.VMDailyCost() + z.P.BlockStorageDailyCost(z.DiskGB*float64(z.Servers))
}

// CostRatio is ZooKeeper's daily cost divided by FaaSKeeper's: values
// above 1 mean FaaSKeeper is cheaper (the cells of Figure 14).
func (m Model) CostRatio(z ZooKeeperDeployment, requestsPerDay, readFraction float64, sizeB int, hybrid bool) float64 {
	fk := m.DailyCost(requestsPerDay, readFraction, sizeB, hybrid)
	if fk == 0 {
		return math.Inf(1)
	}
	return z.VMDailyCost() / fk
}

// BreakEvenRequests returns the daily request volume at which FaaSKeeper's
// cost equals the ZooKeeper deployment's.
func (m Model) BreakEvenRequests(z ZooKeeperDeployment, readFraction float64, sizeB int, hybrid bool) float64 {
	perRequest := readFraction*m.ReadCost(sizeB, hybrid) +
		(1-readFraction)*m.WriteCost(sizeB, hybrid)
	if perRequest == 0 {
		return math.Inf(1)
	}
	return z.VMDailyCost() / perRequest
}

// HeartbeatDailyCost estimates the monitoring cost of Section 5.3.3: one
// scheduled execution per interval, scanning the session table and
// pinging clients.
func (m Model) HeartbeatDailyCost(execSeconds float64, memoryMB int, invocationsPerDay float64, sessionTableBytes int) float64 {
	perRun := m.P.FaaSCost(memoryMB, 1, execSeconds, false)
	perRun += m.P.KVReadCost(sessionTableBytes, true)
	return perRun * invocationsPerDay
}

// StorageCostPoint is one sample of Figure 4a's storage-cost curves.
type StorageCostPoint struct {
	GB      float64
	Ops     float64
	S3Read  float64
	S3Write float64
	KVRead  float64
	KVWrite float64
}

// StorageCostVsSize reproduces the left panel of Figure 4a: one million
// 1 kB operations plus one month of retention at varying dataset size.
func StorageCostVsSize(p cloud.Pricing, gbs []float64) []StorageCostPoint {
	const ops = 1e6
	out := make([]StorageCostPoint, 0, len(gbs))
	for _, gb := range gbs {
		out = append(out, StorageCostPoint{
			GB:      gb,
			Ops:     ops,
			S3Read:  ops*p.ObjectReadCost(1024) + gb*p.ObjectStorageGBMo,
			S3Write: ops*p.ObjectWriteCost(1024) + gb*p.ObjectStorageGBMo,
			KVRead:  ops*p.KVReadCost(1024, true) + gb*p.KVStorageGBMo,
			KVWrite: ops*p.KVWriteCost(1024) + gb*p.KVStorageGBMo,
		})
	}
	return out
}

// StorageCostVsOps reproduces the right panel of Figure 4a: 1 GB of data,
// varying operation count.
func StorageCostVsOps(p cloud.Pricing, opCounts []float64) []StorageCostPoint {
	const gb = 1.0
	out := make([]StorageCostPoint, 0, len(opCounts))
	for _, ops := range opCounts {
		out = append(out, StorageCostPoint{
			GB:      gb,
			Ops:     ops,
			S3Read:  ops*p.ObjectReadCost(1024) + gb*p.ObjectStorageGBMo,
			S3Write: ops*p.ObjectWriteCost(1024) + gb*p.ObjectStorageGBMo,
			KVRead:  ops*p.KVReadCost(1024, true) + gb*p.KVStorageGBMo,
			KVWrite: ops*p.KVWriteCost(1024) + gb*p.KVStorageGBMo,
		})
	}
	return out
}

// Fig14Grid computes one of Figure 14's heatmaps.
type Fig14Cell struct {
	Deployment  string
	Hybrid      bool
	RequestsDay float64
	Ratio       float64
}

// Fig14 enumerates the paper's grid: requests/day x {3,9} servers x
// {t3.small, t3.medium, t3.large} x {standard, hybrid}, at a given read
// fraction with 1 kB operations.
func Fig14(m Model, readFraction float64) []Fig14Cell {
	requestCols := []float64{100_000, 500_000, 1_000_000, 2_000_000, 5_000_000}
	var cells []Fig14Cell
	for _, hybrid := range []bool{false, true} {
		for _, servers := range []int{3, 9} {
			for _, inst := range []string{"t3.small", "t3.medium", "t3.large"} {
				z := ZooKeeperDeployment{P: m.P, Servers: servers, InstanceType: inst, DiskGB: 20}
				for _, r := range requestCols {
					cells = append(cells, Fig14Cell{
						Deployment:  deploymentLabel(servers, inst),
						Hybrid:      hybrid,
						RequestsDay: r,
						Ratio:       m.CostRatio(z, r, readFraction, 1024, hybrid),
					})
				}
			}
		}
	}
	return cells
}

func deploymentLabel(servers int, inst string) string {
	if servers == 3 {
		return "3 x " + inst
	}
	return "9 x " + inst
}

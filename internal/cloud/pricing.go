package cloud

import "math"

// Pricing captures the pay-as-you-go rates the paper quotes for AWS and
// GCP (Section 4.5, Table 4, Section 5.2.2) plus the IaaS rates used for
// the ZooKeeper baseline (Section 5.3.4). All prices are US dollars.
type Pricing struct {
	// Object storage (S3 / Cloud Storage).
	ObjectWritePerOp  float64 // $ per PUT
	ObjectReadPerOp   float64 // $ per GET
	ObjectStorageGBMo float64 // $ per GB-month retained

	// Key-value storage (DynamoDB / Datastore).
	KVWritePerUnit  float64 // $ per write unit
	KVWriteUnitB    int     // bytes per write unit (0 = flat per op)
	KVReadPerUnit   float64 // $ per strongly consistent read unit
	KVReadUnitB     int     // bytes per read unit (0 = flat per op)
	KVEventualScale float64 // multiplier for eventually consistent reads
	KVStorageGBMo   float64 // $ per GB-month retained

	// Queue (SQS / Pub/Sub).
	QueuePerMsgUnit float64 // $ per message unit (SQS: 64 kB increments)
	QueueUnitB      int     // bytes per message unit (0 = per-byte billing)
	QueuePerTB      float64 // $ per TB transferred (Pub/Sub)
	QueueMinMsgB    int     // minimum billed bytes per message (Pub/Sub: 1 kB)

	// Functions. AWS bundles CPU with memory; GCP (2nd gen) bills memory
	// and vCPU separately, which is what makes the paper's reduced-CPU
	// configurations 54-62% cheaper (Section 5.3.2).
	FaaSPerGBSecond   float64
	FaaSPerVCPUSecond float64 // 0 = CPU bundled with memory
	FaaSPerRequest    float64
	FaaSARMDiscount   float64 // multiplier on GB-s for ARM (AWS Graviton)

	// IaaS rates for the ZooKeeper baseline.
	VMHourly  map[string]float64 // instance type -> $/hour
	BlockGBMo float64            // EBS gp3 / PD $ per GB-month

	// CacheVMHourly is the provisioned regional cache node (ElastiCache /
	// Memorystore class): cache traffic itself is free per-operation, the
	// VM bills by the hour like the paper's "third-party" Redis store.
	CacheVMHourly float64
}

// AWSPricing returns the us-east-1 rates used throughout the paper.
func AWSPricing() Pricing {
	return Pricing{
		ObjectWritePerOp:  5e-6, // $5 per million PUTs   (W_S3 in Table 4)
		ObjectReadPerOp:   4e-7, // $0.4 per million GETs (R_S3 in Table 4)
		ObjectStorageGBMo: 0.023,
		KVWritePerUnit:    1.25e-6, // per 1 kB WCU (W_DD in Table 4)
		KVWriteUnitB:      1024,
		KVReadPerUnit:     0.25e-6, // per 4 kB RCU (R_DD in Table 4)
		KVReadUnitB:       4096,
		KVEventualScale:   0.5,
		KVStorageGBMo:     0.25,
		QueuePerMsgUnit:   0.5e-6, // $0.5 per million 64 kB chunks (Q in Table 4)
		QueueUnitB:        64 * 1024,
		FaaSPerGBSecond:   0.0000166667,
		FaaSPerRequest:    0.2e-6,
		FaaSARMDiscount:   0.8,
		VMHourly: map[string]float64{
			// On-demand us-east-1; daily costs of $0.5 / $1 / $2 per
			// Section 5.3.4.
			"t3.small":   0.0208,
			"t3.medium":  0.0416,
			"t3.large":   0.0832,
			"t3.2xlarge": 0.3328,
		},
		BlockGBMo:     0.08,  // gp3
		CacheVMHourly: 0.068, // cache.t3.medium, us-east-1 on-demand
	}
}

// GCPPricing returns the us-central1 rates described in Section 4.5:
// Datastore operations are flat-priced (2.4x / 1.44x DynamoDB's <=1 kB
// read/write), and Pub/Sub bills $40 per TB with a 1 kB minimum.
func GCPPricing() Pricing {
	return Pricing{
		ObjectWritePerOp:  5e-6, // "object storage costs the same"
		ObjectReadPerOp:   4e-7,
		ObjectStorageGBMo: 0.026,
		KVWritePerUnit:    1.44 * 1.25e-6, // flat per op
		KVWriteUnitB:      0,
		KVReadPerUnit:     2.4 * 0.25e-6, // flat per op
		KVReadUnitB:       0,
		KVEventualScale:   1, // Datastore bills the same either way
		KVStorageGBMo:     0.18,
		QueuePerTB:        40,
		QueueMinMsgB:      1024,
		FaaSPerGBSecond:   0.0000025,
		FaaSPerVCPUSecond: 0.000024,
		FaaSPerRequest:    0.4e-6,
		FaaSARMDiscount:   1,
		VMHourly: map[string]float64{
			"e2-small":  0.0168,
			"e2-medium": 0.0335,
		},
		BlockGBMo:     0.10,
		CacheVMHourly: 0.049, // Memorystore basic M1, us-central1
	}
}

// ObjectWriteCost returns the dollars for one object PUT of any size.
func (p Pricing) ObjectWriteCost(sizeB int) float64 { return p.ObjectWritePerOp }

// ObjectReadCost returns the dollars for one object GET of any size.
func (p Pricing) ObjectReadCost(sizeB int) float64 { return p.ObjectReadPerOp }

// KVWriteCost returns the dollars for one KV write of sizeB bytes.
func (p Pricing) KVWriteCost(sizeB int) float64 {
	return p.KVWritePerUnit * float64(units(sizeB, p.KVWriteUnitB))
}

// KVReadCost returns the dollars for one KV read of sizeB bytes.
func (p Pricing) KVReadCost(sizeB int, stronglyConsistent bool) float64 {
	c := p.KVReadPerUnit * float64(units(sizeB, p.KVReadUnitB))
	if !stronglyConsistent && p.KVEventualScale > 0 {
		c *= p.KVEventualScale
	}
	return c
}

// StoreWriteCost returns the dollars for one user-store write of sizeB
// bytes on the given backend — object storage for the paper's standard
// setup, KV for hybrid storage. This is the W_S3/W_DD term of Table 4,
// the per-operation charge the leader's batching distributor folds when
// several queued writes touch the same node.
func (p Pricing) StoreWriteCost(sizeB int, hybrid bool) float64 {
	if hybrid {
		return p.KVWriteCost(sizeB)
	}
	return p.ObjectWriteCost(sizeB)
}

// QueueMsgCost returns the dollars for one queued message of sizeB bytes.
func (p Pricing) QueueMsgCost(sizeB int) float64 {
	if p.QueueUnitB > 0 {
		return p.QueuePerMsgUnit * float64(units(sizeB, p.QueueUnitB))
	}
	b := sizeB
	if b < p.QueueMinMsgB {
		b = p.QueueMinMsgB
	}
	return p.QueuePerTB * float64(b) / 1e12
}

// FaaSCost returns the dollars for one function execution of the given
// duration. vcpu is the CPU allocation (ignored when CPU is bundled).
func (p Pricing) FaaSCost(memoryMB int, vcpu, seconds float64, arm bool) float64 {
	gbs := float64(memoryMB) / 1024 * seconds
	rate := p.FaaSPerGBSecond
	if arm && p.FaaSARMDiscount > 0 {
		rate *= p.FaaSARMDiscount
	}
	c := gbs*rate + p.FaaSPerRequest
	if p.FaaSPerVCPUSecond > 0 {
		if vcpu <= 0 {
			vcpu = 1
		}
		c += vcpu * seconds * p.FaaSPerVCPUSecond
	}
	return c
}

// VMDailyCost returns the dollars per day for count VMs of the given type.
func (p Pricing) VMDailyCost(instanceType string, count int) float64 {
	return p.VMHourly[instanceType] * 24 * float64(count)
}

// BlockStorageDailyCost returns the dollars per day for gb of block storage.
func (p Pricing) BlockStorageDailyCost(gb float64) float64 {
	return p.BlockGBMo * gb * 12 / 365
}

// units computes ceil(size/unit) with a minimum of one unit.
func units(sizeB, unitB int) int64 {
	if unitB <= 0 {
		return 1
	}
	if sizeB <= 0 {
		return 1
	}
	return int64(math.Ceil(float64(sizeB) / float64(unitB)))
}

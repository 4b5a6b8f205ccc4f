// Package chaos is the simulator-level fault-injection harness: seeded
// fault schedules (function crashes at labeled pipeline stages, duplicate
// batch deliveries, delivery delays, storage jitter, regional cache-node
// loss) driven against randomized multi-client workloads whose complete
// client-visible history is recorded and checked for linearizability-style
// invariants. A violation reports the scenario's seed and config, so the
// exact run replays with
//
//	go test ./internal/chaos -run TestChaos -chaos.seed=N -chaos.config=C
//
// or, outside the test harness, `fkcli -seed N chaos C`.
package chaos

import "time"

// Faults is one fault schedule: the per-opportunity probabilities and
// bounds the seeded Injector draws against. The zero value injects
// nothing.
type Faults struct {
	// CrashProb is the probability that a function dies at any one
	// crash-eligible pipeline stage (the obs.Stage* labels). Every crash
	// makes the queue trigger redeliver and replay the batch.
	CrashProb float64

	// CrashCap bounds injected crashes per (stage, session, seq) key so
	// replay storms always terminate inside the function retry budget.
	// 0 means DefaultCrashCap.
	CrashCap int

	// RedeliverProb is the probability that a successfully processed
	// batch is delivered once more — the at-least-once duplicate.
	RedeliverProb float64

	// DelayProb / DelayMax inject extra in-flight latency on a batch
	// delivery (uniform in (0, DelayMax]).
	DelayProb float64
	DelayMax  time.Duration

	// OpJitterProb / OpJitterMax inject extra latency on individual
	// storage and service operations (uniform in (0, OpJitterMax]).
	OpJitterProb float64
	OpJitterMax  time.Duration

	// CacheLosses is how many times the scenario kills the regional cache
	// node mid-run (only meaningful for configs with a cache tier).
	CacheLosses int
}

// DefaultCrashCap bounds injected crashes per (stage, session, seq) key.
const DefaultCrashCap = 2

// DefaultFaults is the standing chaos schedule: every fault class on at
// rates that make multi-fault interleavings common in a few hundred ops
// while the crash cap and retry budget keep every request completing.
func DefaultFaults() Faults {
	return Faults{
		CrashProb:     0.10,
		CrashCap:      DefaultCrashCap,
		RedeliverProb: 0.10,
		DelayProb:     0.06,
		DelayMax:      1200 * time.Millisecond,
		OpJitterProb:  0.05,
		OpJitterMax:   15 * time.Millisecond,
		CacheLosses:   2,
	}
}

// Quiet is a schedule with every fault off — the control arm: the
// workload and checker must pass without faults before a failure under
// DefaultFaults means anything.
func Quiet() Faults { return Faults{} }

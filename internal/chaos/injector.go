package chaos

import (
	"fmt"
	"maps"
	"math/rand"

	"faaskeeper/internal/sim"
)

// Injector implements sim.FaultHook: it draws every fault decision from
// its own seeded source — never the kernel's — so the schedule is a pure
// function of (seed, call sequence) and a replay with the same seed
// injects exactly the same faults at the same points.
type Injector struct {
	f   Faults
	rng *rand.Rand
	cap int

	crashes map[string]int   // (stage|session|seq) -> injected crashes
	counts  map[string]int64 // fault kind -> total injections
	log     []string         // bounded human-readable schedule
}

// maxLog bounds the schedule log kept for failure artifacts.
const maxLog = 4096

// NewInjector builds the seeded injector for one fault schedule.
func NewInjector(seed int64, f Faults) *Injector {
	if f.CrashCap <= 0 {
		f.CrashCap = DefaultCrashCap
	}
	return &Injector{
		f:       f,
		rng:     rand.New(rand.NewSource(seed ^ 0x5eedfa17)),
		cap:     f.CrashCap,
		crashes: map[string]int{},
		counts:  map[string]int64{},
	}
}

func (in *Injector) note(kind, detail string) {
	in.counts[kind]++
	if len(in.log) < maxLog {
		in.log = append(in.log, kind+" "+detail)
	}
}

// Crash implements sim.FaultHook.
func (in *Injector) Crash(stage, session string, seq int64) bool {
	if in.f.CrashProb <= 0 {
		return false
	}
	// One draw per opportunity keeps the schedule deterministic even for
	// capped keys.
	if in.rng.Float64() >= in.f.CrashProb {
		return false
	}
	key := fmt.Sprintf("%s|%s|%d", stage, session, seq)
	if in.crashes[key] >= in.cap {
		return false
	}
	in.crashes[key]++
	in.note("crash."+stage, key)
	return true
}

// Redeliver implements sim.FaultHook.
func (in *Injector) Redeliver(fn string) bool {
	if in.f.RedeliverProb <= 0 || in.rng.Float64() >= in.f.RedeliverProb {
		return false
	}
	in.note("redeliver."+fn, fn)
	return true
}

// DeliveryDelay implements sim.FaultHook.
func (in *Injector) DeliveryDelay(queue string) sim.Time {
	if in.f.DelayProb <= 0 || in.f.DelayMax <= 0 || in.rng.Float64() >= in.f.DelayProb {
		return 0
	}
	d := sim.Time(1 + in.rng.Int63n(int64(in.f.DelayMax)))
	in.note("delay.queue", fmt.Sprintf("%s %v", queue, d))
	return d
}

// OpDelay implements sim.FaultHook.
func (in *Injector) OpDelay() sim.Time {
	if in.f.OpJitterProb <= 0 || in.f.OpJitterMax <= 0 || in.rng.Float64() >= in.f.OpJitterProb {
		return 0
	}
	// Jitter is frequent; keep it out of the schedule log but counted.
	in.counts["jitter.op"]++
	return sim.Time(1 + in.rng.Int63n(int64(in.f.OpJitterMax)))
}

// Counts returns a copy of the per-kind injection totals.
func (in *Injector) Counts() map[string]int64 { return maps.Clone(in.counts) }

// Schedule returns the recorded fault schedule (bounded at maxLog
// entries) — part of the failure artifact that makes a seed's run
// inspectable without re-running it.
func (in *Injector) Schedule() []string { return in.log }

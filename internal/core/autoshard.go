package core

// The auto-shard decision core, extracted from the monitor loop so the
// policy can be unit-tested on synthetic depth schedules without running
// a deployment. The monitor owns the sampling (gauges, mapView) and the
// mechanics of acting (SplitSubtree / GrowShards / MergeSubtree); the
// policy owns only the decision.

import (
	"faaskeeper/internal/costmodel"
	"faaskeeper/internal/shardmap"
)

// delayUSDPerItemSec prices one queued item-second of delay: the
// SLO-violation cost the cost-aware policy weighs against reshard spend.
const delayUSDPerItemSec = 1e-6

// autoShardAction is one tick's verdict: at most one reshard per tick,
// and merges are only considered on ticks that did not split.
type autoShardAction struct {
	splitShard int    // hot shard to reshard this tick; -1 for none
	merge      string // split prefix to fold back; "" for none
}

// autoShardPolicy accumulates streaks and — in cost-aware mode — the
// queue-delay dollar pools the economic objective compares against the
// reshard-transition estimate.
type autoShardPolicy struct {
	cfg        AutoShard
	reshardUSD float64 // estimated $ per reshard transition

	hotStreak  map[int]int
	idleStreak map[string]int

	// delayPool prices each shard's queueing backlog: every sample adds
	// depth x Interval x delayUSDPerItemSec. A split "spends" the hot
	// shard's pool; the pool is the delay cost the split relieves.
	delayPool map[int]float64

	// splitPaid is the delay cost a split's shards have absorbed since
	// the split — the evidence that the split (and the merge that would
	// undo it) earned their transitions.
	splitPaid map[string]float64
}

func newAutoShardPolicy(cfg AutoShard, reshardUSD float64) *autoShardPolicy {
	return &autoShardPolicy{
		cfg:        cfg,
		reshardUSD: reshardUSD,
		hotStreak:  map[int]int{},
		idleStreak: map[string]int{},
		delayPool:  map[int]float64{},
		splitPaid:  map[string]float64{},
	}
}

// step ingests one round of depth samples (depth must tolerate any shard
// in [0, m.Queues)) and returns the action to take. With CostAware off
// the decisions reduce exactly to the depth-threshold policy: a shard hot
// for Sustain samples splits, a split idle for MergeIdle samples merges.
// Cost-aware mode keeps the streaks as the trigger but adds an economic
// gate on each:
//
//   - split only once the hot shard's delay pool has paid for the
//     estimated reshard transition — sustained-but-mild heat that never
//     costs a transition's dollars never warrants one;
//   - merge only once the split has absorbed delay cost covering both
//     its own transition and the merge's. A split that went idle before
//     earning its keep stays: merging would spend reshard dollars to
//     relieve nothing, and the next spike would spend them again.
func (p *autoShardPolicy) step(m *shardmap.Map, depth func(int) int64) autoShardAction {
	act := autoShardAction{splitShard: -1}
	dt := p.cfg.Interval.Seconds()
	for s := 0; s < m.Queues; s++ {
		c := float64(depth(s)) * dt * delayUSDPerItemSec
		p.delayPool[s] += c
		if sp, ok := m.SplitFor(s); ok {
			p.splitPaid[sp.Prefix] += c
		}
	}
	acted := false
	for s := 0; s < m.Queues; s++ {
		if depth(s) >= int64(p.cfg.SplitDepth) {
			p.hotStreak[s]++
		} else {
			p.hotStreak[s] = 0
		}
		if acted || p.hotStreak[s] < p.cfg.Sustain {
			continue
		}
		if p.cfg.CostAware && p.delayPool[s] < p.reshardUSD {
			continue
		}
		p.hotStreak[s] = 0
		p.delayPool[s] = 0
		acted = true
		act.splitShard = s
	}
	if p.cfg.MergeIdle > 0 && !acted {
		for _, sp := range m.Splits {
			idle := true
			for _, s := range sp.Shards {
				if depth(s) > 0 {
					idle = false
					break
				}
			}
			if idle {
				p.idleStreak[sp.Prefix]++
			} else {
				p.idleStreak[sp.Prefix] = 0
			}
			if p.idleStreak[sp.Prefix] < p.cfg.MergeIdle {
				continue
			}
			if p.cfg.CostAware && p.splitPaid[sp.Prefix] < 2*p.reshardUSD {
				continue
			}
			p.idleStreak[sp.Prefix] = 0
			delete(p.splitPaid, sp.Prefix)
			for _, s := range sp.Shards {
				delete(p.delayPool, s)
			}
			act.merge = sp.Prefix
			break
		}
	}
	return act
}

// reshardEstimateUSD prices one reshard transition for the policy's
// economic gates from the deployment's own pricing sheet.
func (d *Deployment) reshardEstimateUSD() float64 {
	m := costmodel.Model{P: d.Cfg.Profile.Pricing}
	return m.ReshardEstimate(d.Cfg.AutoShard.SplitWays, 512)
}

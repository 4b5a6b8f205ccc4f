// Package stats provides the small set of summary statistics used by every
// experiment in the reproduction: exact percentiles over collected samples,
// distribution summaries matching the rows the paper reports (min / p50 /
// p90 / p95 / p99 / max), and fixed-window throughput counters.
package stats

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// Sample accumulates float64 observations (by convention, milliseconds).
type Sample struct {
	xs     []float64
	sorted bool
}

// NewSample returns an empty sample with capacity hint n.
func NewSample(n int) *Sample { return &Sample{xs: make([]float64, 0, n)} }

// Add appends one observation.
func (s *Sample) Add(x float64) {
	s.xs = append(s.xs, x)
	s.sorted = false
}

// AddDur appends a duration observation converted to milliseconds.
func (s *Sample) AddDur(d time.Duration) { s.Add(float64(d) / float64(time.Millisecond)) }

// N returns the number of observations.
func (s *Sample) N() int { return len(s.xs) }

// Values returns the raw observations (unsorted order is not preserved once
// a percentile has been requested).
func (s *Sample) Values() []float64 { return s.xs }

func (s *Sample) sort() {
	if !s.sorted {
		sort.Float64s(s.xs)
		s.sorted = true
	}
}

// Percentile returns the p-th percentile (p in [0,100]) with linear
// interpolation between closest ranks. It panics on an empty sample.
func (s *Sample) Percentile(p float64) float64 {
	if len(s.xs) == 0 {
		panic("stats: percentile of empty sample")
	}
	s.sort()
	if p <= 0 {
		return s.xs[0]
	}
	if p >= 100 {
		return s.xs[len(s.xs)-1]
	}
	rank := p / 100 * float64(len(s.xs)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return s.xs[lo]
	}
	frac := rank - float64(lo)
	return s.xs[lo]*(1-frac) + s.xs[hi]*frac
}

// Min returns the smallest observation.
func (s *Sample) Min() float64 { return s.Percentile(0) }

// Max returns the largest observation.
func (s *Sample) Max() float64 { return s.Percentile(100) }

// Mean returns the arithmetic mean.
func (s *Sample) Mean() float64 {
	if len(s.xs) == 0 {
		panic("stats: mean of empty sample")
	}
	var sum float64
	for _, x := range s.xs {
		sum += x
	}
	return sum / float64(len(s.xs))
}

// Summary is the five-number (plus p90/mean) summary used in the paper's
// latency tables.
type Summary struct {
	N                            int
	Min, P50, P90, P95, P99, Max float64
	Mean                         float64
}

// Summarize computes a Summary for the sample.
func (s *Sample) Summarize() Summary {
	return Summary{
		N:    s.N(),
		Min:  s.Min(),
		P50:  s.Percentile(50),
		P90:  s.Percentile(90),
		P95:  s.Percentile(95),
		P99:  s.Percentile(99),
		Max:  s.Max(),
		Mean: s.Mean(),
	}
}

// String renders the summary in the paper's row format.
func (s Summary) String() string {
	return fmt.Sprintf("min=%.2f p50=%.2f p95=%.2f p99=%.2f max=%.2f (n=%d)",
		s.Min, s.P50, s.P95, s.P99, s.Max, s.N)
}

// Counter tracks event counts in fixed windows of virtual time, used for
// throughput plots (events per second over the run).
type Counter struct {
	window time.Duration
	counts map[int64]int64
}

// NewCounter creates a counter with the given window size.
func NewCounter(window time.Duration) *Counter {
	if window <= 0 {
		panic("stats: counter window must be positive")
	}
	return &Counter{window: window, counts: map[int64]int64{}}
}

// Tick records one event at virtual time t.
func (c *Counter) Tick(t time.Duration) { c.counts[int64(t/c.window)]++ }

// Rates returns the per-window rates in events/second, ordered by window.
func (c *Counter) Rates() []float64 {
	if len(c.counts) == 0 {
		return nil
	}
	var maxW int64
	for w := range c.counts {
		if w > maxW {
			maxW = w
		}
	}
	perSec := float64(time.Second) / float64(c.window)
	rates := make([]float64, maxW+1)
	for w, n := range c.counts {
		rates[w] = float64(n) * perSec
	}
	return rates
}

package sim

import (
	"math"
	"math/rand"
	"time"
)

// Dist is a latency distribution sampled with the kernel's random source.
type Dist interface {
	Sample(r *rand.Rand) time.Duration
}

// Const is a distribution that always returns the same duration.
type Const time.Duration

// Sample implements Dist.
func (c Const) Sample(*rand.Rand) time.Duration { return time.Duration(c) }

// Uniform samples uniformly from [Lo, Hi].
type Uniform struct {
	Lo, Hi time.Duration
}

// Sample implements Dist.
func (u Uniform) Sample(r *rand.Rand) time.Duration {
	if u.Hi <= u.Lo {
		return u.Lo
	}
	return u.Lo + time.Duration(r.Int63n(int64(u.Hi-u.Lo)))
}

// Quantile is a piecewise-linear inverse CDF through calibration points.
// Interpolation happens in the log domain so the long right tails reported
// in the paper (p99 and max far above the median) are reproduced without
// distorting the body of the distribution.
type Quantile struct {
	qs  []float64 // strictly increasing in [0,1]
	vs  []float64 // corresponding values, milliseconds, > 0
	lvs []float64 // their natural logs, taken once
}

// Q builds a Quantile distribution from the five statistics the paper
// reports for its latency tables: min, median, p95, p99 and max, all in
// milliseconds.
func Q(min, p50, p95, p99, max float64) *Quantile {
	return NewQuantile(
		[]float64{0, 0.50, 0.95, 0.99, 1},
		[]float64{min, p50, p95, p99, max},
	)
}

// Q90 builds a Quantile distribution from min/p50/p90/p95/p99 rows
// (Table 3 in the paper uses p90 instead of max).
func Q90(min, p50, p90, p95, p99 float64) *Quantile {
	// Extrapolate a max at 1.5x p99: the paper's Table 3 omits it and the
	// exact tail end has no effect on medians or p99s we report.
	return NewQuantile(
		[]float64{0, 0.50, 0.90, 0.95, 0.99, 1},
		[]float64{min, p50, p90, p95, p99, p99 * 1.5},
	)
}

// NewQuantile builds a distribution from arbitrary (quantile, value) pairs.
// Quantiles must start at 0, end at 1, and increase strictly; values must
// be positive and non-decreasing.
func NewQuantile(qs, vs []float64) *Quantile {
	if len(qs) != len(vs) || len(qs) < 2 {
		panic("sim: NewQuantile needs matching quantile/value slices of length >= 2")
	}
	if qs[0] != 0 || qs[len(qs)-1] != 1 {
		panic("sim: quantiles must span [0,1]")
	}
	for i := 1; i < len(qs); i++ {
		if qs[i] <= qs[i-1] {
			panic("sim: quantiles must increase strictly")
		}
		if vs[i] < vs[i-1] {
			panic("sim: quantile values must be non-decreasing")
		}
	}
	if vs[0] <= 0 {
		panic("sim: quantile values must be positive")
	}
	lvs := make([]float64, len(vs))
	for i, v := range vs {
		lvs[i] = math.Log(v)
	}
	return &Quantile{qs: append([]float64(nil), qs...), vs: append([]float64(nil), vs...), lvs: lvs}
}

// Sample implements Dist.
func (d *Quantile) Sample(r *rand.Rand) time.Duration {
	u := r.Float64()
	return d.at(u)
}

// at evaluates the inverse CDF at u in [0,1].
func (d *Quantile) at(u float64) time.Duration {
	if u <= 0 {
		return msToDur(d.vs[0])
	}
	if u >= 1 {
		return msToDur(d.vs[len(d.vs)-1])
	}
	i := 1
	for d.qs[i] < u {
		i++
	}
	lo, hi := d.qs[i-1], d.qs[i]
	t := (u - lo) / (hi - lo)
	// Log-domain interpolation keeps heavy tails heavy.
	v := math.Exp(d.lvs[i-1]*(1-t) + d.lvs[i]*t)
	return msToDur(v)
}

// Scale returns a distribution that multiplies every sample of d by f.
func Scale(d Dist, f float64) Dist { return scaled{d: d, f: f} }

type scaled struct {
	d Dist
	f float64
}

func (s scaled) Sample(r *rand.Rand) time.Duration {
	return time.Duration(float64(s.d.Sample(r)) * s.f)
}

// Shift returns a distribution that adds a constant offset to every sample.
func Shift(d Dist, off time.Duration) Dist { return shifted{d: d, off: off} }

type shifted struct {
	d   Dist
	off time.Duration
}

func (s shifted) Sample(r *rand.Rand) time.Duration { return s.d.Sample(r) + s.off }

// Sum samples each distribution once and adds the results.
type Sum []Dist

// Sample implements Dist.
func (s Sum) Sample(r *rand.Rand) time.Duration {
	var t time.Duration
	for _, d := range s {
		t += d.Sample(r)
	}
	return t
}

// Ms converts milliseconds to a duration; convenient for latency tables.
func Ms(ms float64) time.Duration { return msToDur(ms) }

// DurMs converts a duration to float milliseconds; used when reporting.
func DurMs(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func msToDur(ms float64) time.Duration {
	return time.Duration(ms * float64(time.Millisecond))
}

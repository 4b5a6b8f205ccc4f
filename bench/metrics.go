package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile (0..1) of xs by linear interpolation
// between closest ranks. It sorts xs in place and needs at least one value.
func quantile(xs []float64, q float64) float64 {
	sort.Float64s(xs)
	rank := q * float64(len(xs)-1)
	lo, hi := int(math.Floor(rank)), int(math.Ceil(rank))
	return xs[lo] + (xs[hi]-xs[lo])*(rank-float64(lo))
}

func mean(xs []float64) float64 {
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// metric is one named measurement.
type metric struct {
	name  string
	value float64
	unit  string
}

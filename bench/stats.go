package main

// stats.go holds the order statistics every metric is built from. The
// benchmark reports medians, nearest-rank percentiles and geometric
// means only: a mean is the number a noisy-neighbour burst moves most.

import (
	"math"
	"sort"
)

// percentile is the nearest-rank percentile: the smallest sample with at
// least p·n samples at or below it. It never interpolates, so a pooled
// percentile over classes of very different cost is always a time some
// operation really took, not a point between two classes.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p*float64(len(s)) - 1e-9))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1]
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

// geomean is the geometric mean of the positive entries of xs; a class
// that produced no sample (or a zero) does not take part.
func geomean(xs []float64) float64 {
	sum, n := 0.0, 0
	for _, x := range xs {
		if x > 0 {
			sum += math.Log(x)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(sum / float64(n))
}

// classGeomean is the headline aggregation: the geometric mean over
// classes of each class's median, so small and large instances weigh
// the same and a burst that hits a few operations moves nothing.
func classGeomean(byClass map[string][]float64) float64 {
	meds := make([]float64, 0, len(byClass))
	for _, xs := range byClass {
		meds = append(meds, median(xs))
	}
	sort.Float64s(meds) // map order must not reach the floating-point sum
	return geomean(meds)
}

// percentileLadder lists the percentiles a report may quote, in order.
var percentileLadder = []float64{0.5, 0.75, 0.9, 0.95, 0.99, 0.999}

// highestSupportedPercentile is the highest ladder percentile that still
// has at least ten samples beyond it among n samples (0 when not even
// the median has).
func highestSupportedPercentile(n int) float64 {
	best := 0.0
	for _, p := range percentileLadder {
		rank := int(math.Ceil(p*float64(n) - 1e-9))
		if n-rank >= 10 {
			best = p
		}
	}
	return best
}

// quartiles mirrors Python's statistics.quantiles(xs, n=4) (the default
// exclusive method), which is how the spread of a metric over repeated
// runs is judged.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0], s[0]
		}
		return 0, 0, 0
	}
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q(1), q(2), q(3)
}

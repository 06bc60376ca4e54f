package main

import (
	"math"
	"sort"
)

// percentile returns the nearest-rank q-quantile (0 < q <= 1) of xs, a
// value that was actually measured. xs is sorted in place.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	rank := int(math.Ceil(q*float64(len(xs)))) - 1
	return xs[max(rank, 0)]
}

// median returns the median of xs (the mean of the middle two for an even
// count). xs is sorted in place.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	sort.Float64s(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// quartiles returns the first and third quartiles of xs with the same
// exclusive method as Python's statistics.quantiles(xs, n=4). xs is sorted
// in place; it needs at least two values.
func quartiles(xs []float64) (q1, q3 float64) {
	sort.Float64s(xs)
	n := float64(len(xs))
	at := func(j int) float64 {
		p := float64(j) * (n + 1) / 4
		i := int(math.Floor(p))
		switch {
		case i < 1:
			return xs[0]
		case i >= len(xs):
			return xs[len(xs)-1]
		}
		return xs[i-1] + (p-float64(i))*(xs[i]-xs[i-1])
	}
	return at(1), at(3)
}

// ratio is a/b, or 0 when b is 0 (a layer the workload never called).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

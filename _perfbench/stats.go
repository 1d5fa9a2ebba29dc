package main

import (
	"math"
	"sort"
)

// quantile returns the nearest-rank q-quantile of xs (0 < q <= 1): the
// smallest sample with at least a share q of the samples at or below it.
// beyond counts the samples strictly above that rank, so a caller can
// refuse a percentile that rests on too few tail samples. xs is sorted in
// place. An empty input yields NaN.
func quantile(xs []float64, q float64) (v float64, beyond int) {
	if len(xs) == 0 {
		return math.NaN(), 0
	}
	sort.Float64s(xs)
	rank := int(math.Ceil(q * float64(len(xs))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(xs) {
		rank = len(xs)
	}
	return xs[rank-1], len(xs) - rank
}

// median is the nearest-rank median of xs, sorting a copy.
func median(xs []float64) float64 {
	v, _ := quantile(append([]float64(nil), xs...), 0.5)
	return v
}

// mean is the arithmetic mean of xs (NaN when empty).
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

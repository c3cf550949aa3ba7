package main

import (
	"math"
	"sort"
)

// median returns the middle value of xs (the mean of the two middle values
// for an even count), or NaN for an empty input.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartiles of xs by the method of
// Python's statistics.quantiles(xs, n=4) (its default, "exclusive"), so
// that the spreads printed here match the ones the acceptance check
// computes. A single value is its own quartiles; an empty input gives NaN.
func quartiles(xs []float64) (q1, q3 float64) {
	switch len(xs) {
	case 0:
		return math.NaN(), math.NaN()
	case 1:
		return xs[0], xs[0]
	}
	s := sorted(xs)
	q := func(i int) float64 {
		const n = 4
		m := len(s) + 1
		j := i * m / n
		if j < 1 {
			j = 1
		}
		if j > len(s)-1 {
			j = len(s) - 1
		}
		delta := float64(i*m - j*n)
		return (s[j-1]*(n-delta) + s[j]*delta) / n
	}
	return q(1), q(3)
}

// spread is the interquartile range of xs as a share of its median.
func spread(xs []float64) float64 {
	q1, q3 := quartiles(xs)
	return (q3 - q1) / median(xs)
}

// percentile returns the nearest-rank p-quantile of xs (0 < p ≤ 1) and the
// number of samples strictly above it. A tail percentile means something
// only when that count is at least ten.
func percentile(xs []float64, p float64) (v float64, beyond int) {
	if len(xs) == 0 {
		return math.NaN(), 0
	}
	s := sorted(xs)
	rank := int(math.Ceil(p*float64(len(s)))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(s) {
		rank = len(s) - 1
	}
	v = s[rank]
	beyond = len(s) - sort.Search(len(s), func(i int) bool { return s[i] > v })
	return v, beyond
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

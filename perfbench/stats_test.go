package main

import (
	"math"
	"testing"
)

func TestMedian(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want float64
	}{
		{[]float64{3}, 3},
		{[]float64{5, 1, 3}, 3},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(tc.xs); got != tc.want {
			t.Errorf("median(%v) = %v, want %v", tc.xs, got, tc.want)
		}
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing is not NaN")
	}
}

// The quartiles must be Python's statistics.quantiles(xs, n=4); the wanted
// values below are what Python 3.11 prints for the same inputs.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{10, 1, 7, 3, 5}, 2, 8.5},
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{2.5, 1.5, 4.0, 3.25}, 1.75, 3.8125},
	} {
		q1, q3 := quartiles(tc.xs)
		if math.Abs(q1-tc.q1) > 1e-12 || math.Abs(q3-tc.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v, want %v, %v", tc.xs, q1, q3, tc.q1, tc.q3)
		}
	}
}

func TestSpread(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got, want := spread(xs), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread = %v, want %v", got, want)
	}
}

func TestPercentile(t *testing.T) {
	var xs []float64
	for i := 100; i >= 1; i-- {
		xs = append(xs, float64(i))
	}
	v, beyond := percentile(xs, 0.9)
	if v != 90 || beyond != 10 {
		t.Errorf("p90 of 1..100 = %v with %d beyond, want 90 with 10", v, beyond)
	}
	if v, _ := percentile(xs, 0.99); v != 99 {
		t.Errorf("p99 of 1..100 = %v, want 99", v)
	}
	if v, beyond := percentile([]float64{7}, 0.99); v != 7 || beyond != 0 {
		t.Errorf("p99 of one sample = %v, %d beyond", v, beyond)
	}
	// Ties at the percentile do not count as beyond it.
	if _, beyond := percentile([]float64{1, 2, 2, 2}, 0.5); beyond != 0 {
		t.Errorf("beyond = %d, want 0", beyond)
	}
}

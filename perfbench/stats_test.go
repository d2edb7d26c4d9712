package main

import (
	"math"
	"testing"
)

func TestMedian(t *testing.T) {
	cases := []struct {
		xs   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{3}, 3},
		{[]float64{5, 1, 3}, 3},
		{[]float64{4, 1, 3, 2}, 2.5},
	}
	for _, c := range cases {
		if got := median(c.xs); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

func TestTailPercentileKeepsTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n    int
		want int
		ok   bool
	}{
		{19, 0, false},
		{20, 50, true},
		{39, 50, true},
		{40, 75, true},
		{99, 75, true},
		{100, 90, true},
		{5000, 90, true},
	}
	for _, c := range cases {
		p, ok := tailPercentile(c.n)
		if p != c.want || ok != c.ok {
			t.Errorf("tailPercentile(%d) = %d, %v; want %d, %v", c.n, p, ok, c.want, c.ok)
		}
		if ok && c.n-rankOf(c.n, p) < 10 {
			t.Errorf("n=%d p%d leaves %d samples beyond", c.n, p, c.n-rankOf(c.n, p))
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100..1, unsorted input
	}
	if got := percentile(xs, 90); got != 90 {
		t.Errorf("p90 of 1..100 = %v, want 90", got)
	}
	if got := percentile(xs, 50); got != 50 {
		t.Errorf("p50 of 1..100 = %v, want 50", got)
	}
	beyond := 0
	for _, x := range xs {
		if x > percentile(xs, 90) {
			beyond++
		}
	}
	if beyond != 10 {
		t.Errorf("%d samples beyond p90 of 100, want 10", beyond)
	}
}

func TestGeomean(t *testing.T) {
	if got := geomean([]float64{1, 100}); math.Abs(got-10) > 1e-12 {
		t.Errorf("geomean(1, 100) = %v, want 10", got)
	}
	if got := geomean([]float64{2, 8, 4}); math.Abs(got-4) > 1e-12 {
		t.Errorf("geomean(2, 8, 4) = %v, want 4", got)
	}
	if got := geomean([]float64{3, 0}); got != 0 {
		t.Errorf("geomean with a zero = %v, want 0", got)
	}
	if got := geomean(nil); got != 0 {
		t.Errorf("geomean() = %v, want 0", got)
	}
}

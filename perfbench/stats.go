package main

import (
	"math"
	"sort"
)

// tailLadder lists the percentiles iter_tail_ms may use, highest first. A
// coarse ladder keeps the chosen percentile from flipping between runs
// whose sample counts differ by a few iterations.
var tailLadder = []int{90, 75, 50}

// sorted returns a sorted copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the median of xs (the mean of the two middle values for
// an even count), or 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// rankOf is the 1-based nearest-rank index of percentile p among n samples.
func rankOf(n, p int) int {
	r := (p*n + 99) / 100
	if r < 1 {
		r = 1
	}
	return r
}

// tailPercentile returns the highest ladder percentile that still has at
// least ten samples beyond it among n samples, and false when even the
// lowest rung does not (n < 20).
func tailPercentile(n int) (int, bool) {
	for _, p := range tailLadder {
		if n-rankOf(n, p) >= 10 {
			return p, true
		}
	}
	return 0, false
}

// percentile returns the nearest-rank percentile p of xs.
func percentile(xs []float64, p int) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	return s[rankOf(len(s), p)-1]
}

// geomean returns the geometric mean of xs. Every value must be positive;
// a zero or negative value makes the mean undefined and yields 0.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		if x <= 0 {
			return 0
		}
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// mean returns the arithmetic mean of xs, or 0 for an empty slice.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

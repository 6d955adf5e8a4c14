package main

import (
	"math"
	"sort"
)

// minTail is how many samples must lie beyond a reported percentile: a
// tail percentile resting on fewer is one or two outliers, not a shape.
const minTail = 10

// percentile returns the nearest-rank p-quantile (0 < p <= 1) of sorted.
// It returns 0 for an empty sample.
func percentile(sorted []int64, p float64) int64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	rank := int(math.Ceil(p*float64(n))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= n {
		rank = n - 1
	}
	return sorted[rank]
}

// beyond is how many of n samples lie strictly above the nearest-rank
// p-quantile.
func beyond(n int, p float64) int {
	rank := int(math.Ceil(p * float64(n)))
	if rank > n {
		rank = n
	}
	return n - rank
}

// supported reports whether the p-quantile of n samples has at least
// minTail samples beyond it.
func supported(n int, p float64) bool { return beyond(n, p) >= minTail }

// ratio returns num/den, or 0 when nothing was attempted.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// sortedCopy returns xs sorted ascending without touching xs.
func sortedCopy(xs []int64) []int64 {
	out := append([]int64(nil), xs...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// medianFloat returns the median of xs (mean of the middle pair for an
// even count), or 0 for an empty slice.
func medianFloat(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

func nsToMs(ns int64) float64 { return float64(ns) / 1e6 }
func nsToUs(ns int64) float64 { return float64(ns) / 1e3 }

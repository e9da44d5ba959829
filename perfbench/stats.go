package main

import (
	"math"
	"sort"
)

// minBeyond is the sample rule for percentiles: a percentile is
// reported only when at least this many samples lie beyond its rank,
// so a p99 needs 1000 samples and a p50 needs 20.
const minBeyond = 10

// rank is the 1-based nearest-rank position of the p-th percentile
// among n sorted samples.
func rank(n int, p float64) int {
	r := int(math.Ceil(p / 100 * float64(n)))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// beyond counts the samples that lie strictly beyond the p-th
// percentile's rank.
func beyond(n int, p float64) int {
	if n == 0 {
		return 0
	}
	return n - rank(n, p)
}

// reportable applies the sample rule.
func reportable(n int, p float64) bool { return beyond(n, p) >= minBeyond }

// percentile returns the nearest-rank p-th percentile of xs and
// whether the sample rule allows reporting it. xs is not modified.
func percentile(xs []float64, p float64) (float64, bool) {
	if len(xs) == 0 {
		return 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank(len(s), p)-1], reportable(len(s), p)
}

// median is the middle sample (mean of the middle two for an even
// count). It is used where the contract asks for a median of a few
// repetitions, such as set-up time, rather than a reported percentile.
func median(xs []float64) float64 {
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

// ratio divides num by den, reporting 0 for an empty base; callers
// print the base beside every ratio.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie beyond a tail percentile
// before it is reported: with fewer, the value is one or two outliers,
// not a percentile.
const minBeyond = 10

// median returns the median of xs (the mean of the two middle values
// for an even count) without reordering xs. It is NaN for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailPercentile returns the nearest-rank p-th percentile (0 < p < 100)
// of xs, and false when fewer than minBeyond samples lie strictly
// beyond that rank.
func tailPercentile(xs []float64, p float64) (float64, bool) {
	n := len(xs)
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 || n-rank < minBeyond {
		return 0, false
	}
	return sortedCopy(xs)[rank-1], true
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// durations converts latencies to float64 in the given unit.
func durations(ds []time.Duration, unit time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(unit)
	}
	return out
}

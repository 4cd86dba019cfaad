package main

import (
	"math"
	"sort"
	"time"
)

// tailLadder lists the percentiles the tail metric may report, highest
// first. p99 needs at least 1000 samples, p90 at least 100.
var tailLadder = []float64{99, 90, 50}

// minBeyond is how many samples must lie beyond a reported percentile.
const minBeyond = 10

// tailPercentile returns the highest percentile in tailLadder that
// leaves at least minBeyond of n samples beyond it, or the lowest rung
// when none does.
func tailPercentile(n int) float64 {
	for _, p := range tailLadder {
		if n-rank(n, p) >= minBeyond {
			return p
		}
	}
	return tailLadder[len(tailLadder)-1]
}

// rank is the 1-based nearest-rank position of percentile p in n
// sorted samples.
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

// percentile returns the nearest-rank percentile p of sorted, or 0 for
// an empty sample.
func percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rank(len(sorted), p)-1]
}

func sortDurations(d []time.Duration) []time.Duration {
	sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
	return d
}

// median returns the median of xs (the mean of the middle pair for an
// even count), or 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	xs = append([]float64{}, xs...)
	sort.Float64s(xs)
	m := len(xs) / 2
	if len(xs)%2 == 1 {
		return xs[m]
	}
	return (xs[m-1] + xs[m]) / 2
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio returns a/b, or 0 when b is 0 (a per-write figure on a
// workload without writes).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

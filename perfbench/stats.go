package main

import (
	"math"
	"sort"
	"time"
)

// minTail is the number of samples a percentile must have beyond it to be
// reported as exact: p99 needs 1000 samples, p50 needs 20.
const minTail = 10

// percentile returns the nearest-rank q-quantile of vs, which it sorts in
// place, and whether at least minTail values lie beyond it. It returns 0
// with no values.
func percentile(vs []float64, q float64) (float64, bool) {
	n := len(vs)
	if n == 0 {
		return 0, false
	}
	sort.Float64s(vs)
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	return vs[rank-1], n-rank >= minTail
}

// median returns the median of vs (the mean of the two middle values for
// an even count), 0 with no values. It does not modify vs.
func median(vs []float64) float64 {
	n := len(vs)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// ratio is num/den, 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// usOf converts durations to microseconds.
func usOf(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = us(d)
	}
	return out
}

package main

import (
	"math"
	"sort"
)

// tailGuard is the "ten samples beyond" rule: a percentile is published
// only when at least this many samples lie above it, so a p99 needs 1000
// samples. Below that the tail is one or two outliers, not a percentile.
const tailGuard = 10

// percentile returns the q-quantile (0 < q < 1) of sorted, and false when
// fewer than tailGuard samples lie beyond it. sorted must be ascending.
func percentile(sorted []float64, q float64) (float64, bool) {
	n := len(sorted)
	if n == 0 {
		return 0, false
	}
	// Nearest-rank: the smallest sample with at least q·n samples at or
	// below it.
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if n-rank < tailGuard {
		return 0, false
	}
	return sorted[rank-1], true
}

// median returns the middle sample of vals (mean of the two middle ones for
// an even count); 0 for no samples. vals is not modified.
func median(vals []float64) float64 {
	n := len(vals)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// ratio is a/b, or 0 when b is 0 (a layer the workload never exercised).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// pulsesPerQuery divides the pulses of whole round-robin cycles by their
// query count. pulses holds one client's per-query pulse counts in send
// order and cycle is the number of queries in one round-robin cycle; the
// trailing partial cycle is dropped, because which plans it contains
// depends on where the window happened to end.
func pulsesPerQuery(clients [][]int, cycle int) (float64, bool) {
	sum, queries := 0, 0
	for _, pulses := range clients {
		whole := len(pulses) / cycle * cycle
		for _, p := range pulses[:whole] {
			sum += p
		}
		queries += whole
	}
	if queries == 0 {
		return 0, false
	}
	return float64(sum) / float64(queries), true
}

package main

import (
	"math"
	"slices"
)

// Latency percentiles are computed from raw samples kept in preallocated
// buffers, never from the runtime's log2 histograms: a log2 bucket bound
// cannot resolve a change smaller than 2x.

// pct is one nearest-rank percentile with the number of samples that lie
// beyond its rank, so a reader can tell how well the sample supports it.
type pct struct {
	US     float64 // value in microseconds
	Beyond int     // samples ranked above the percentile
}

// latSummary is the exact-sample digest of one latency distribution.
type latSummary struct {
	N             int
	P50, P90, P99 pct
}

// nearestRank returns the q-quantile (0 < q <= 1) of sorted by the
// nearest-rank rule: the smallest sample such that at least a fraction q
// of all samples are <= it. beyond counts the samples ranked above it.
// An empty input yields (0, 0).
func nearestRank(sorted []int64, q float64) (v int64, beyond int) {
	n := len(sorted)
	if n == 0 {
		return 0, 0
	}
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1], n - rank
}

// summarize sorts ns (nanosecond samples) in place and digests it.
func summarize(ns []int64) latSummary {
	slices.Sort(ns)
	s := latSummary{N: len(ns)}
	for _, p := range []struct {
		q   float64
		out *pct
	}{{0.50, &s.P50}, {0.90, &s.P90}, {0.99, &s.P99}} {
		v, beyond := nearestRank(ns, p.q)
		*p.out = pct{US: float64(v) / 1e3, Beyond: beyond}
	}
	return s
}

// median returns the middle value of xs (mean of the two middle values
// for an even count), sorting xs in place; 0 for an empty slice.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	slices.Sort(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// ratio is a/b, or 0 when b is 0 (a layer that did no work on a workload).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

package main

import (
	"slices"
	"testing"
)

// refQuantile is the definition written out over a sorted copy: the
// smallest sample such that at least a fraction q of all samples are at or
// below it, and how many samples rank above it.
func refQuantile(xs []int64, q float64) (int64, int) {
	s := slices.Clone(xs)
	slices.Sort(s)
	for k := 1; k <= len(s); k++ { // k samples rank at or below s[k-1]
		if float64(k) >= q*float64(len(s)) {
			return s[k-1], len(s) - k
		}
	}
	return 0, 0
}

func TestNearestRankMatchesSortReference(t *testing.T) {
	r := rng{s: 7}
	for _, n := range []int{1, 2, 3, 5, 9, 10, 11, 99, 100, 101, 1000} {
		xs := make([]int64, n)
		for i := range xs {
			xs[i] = int64(r.intn(50)) // ties on purpose
		}
		sorted := slices.Clone(xs)
		slices.Sort(sorted)
		for _, q := range []float64{0.5, 0.9, 0.99} {
			v, beyond := nearestRank(sorted, q)
			wv, wbeyond := refQuantile(xs, q)
			if v != wv || beyond != wbeyond {
				t.Errorf("n=%d q=%v: got (%d, %d beyond), want (%d, %d beyond)", n, q, v, beyond, wv, wbeyond)
			}
		}
	}
}

func TestPercentileWithFewSamplesBeyond(t *testing.T) {
	// Ten samples support p90 with one sample beyond it; p99 falls on the
	// maximum with none beyond, which the report must show.
	xs := []int64{10e3, 1e3, 9e3, 2e3, 8e3, 3e3, 7e3, 4e3, 6e3, 5e3}
	s := summarize(xs)
	if s.N != 10 || s.P50 != (pct{US: 5, Beyond: 5}) || s.P90 != (pct{US: 9, Beyond: 1}) || s.P99 != (pct{US: 10, Beyond: 0}) {
		t.Fatalf("summary %+v", s)
	}
	if empty := summarize(nil); empty != (latSummary{}) {
		t.Fatalf("empty summary %+v", empty)
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("odd median %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("even median %v", m)
	}
}

package main

import (
	"testing"
	"time"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending: percentile must sort a copy
	}
	return xs
}

func TestPercentileNeedsTenBeyond(t *testing.T) {
	for _, tc := range []struct {
		n      int
		q      float64
		want   float64
		wantOK bool
	}{
		{100, 0.9, 90, true}, // samples 91..100 lie beyond
		{99, 0.9, 90, false}, // only 9 beyond
		{110, 0.9, 99, true}, // 11 beyond
		{19, 0.5, 10, false}, // 9 beyond the median
		{21, 0.5, 11, true},  // 10 beyond the median
		{1, 0.9, 1, false},   // a single sample has nothing beyond
		{1000, 0.99, 990, true},
	} {
		xs := seq(tc.n)
		got, ok := percentile(xs, tc.q)
		if got != tc.want || ok != tc.wantOK {
			t.Errorf("percentile(n=%d, q=%v) = %v, %v; want %v, %v", tc.n, tc.q, got, ok, tc.want, tc.wantOK)
		}
		if xs[0] != float64(tc.n) {
			t.Errorf("percentile modified its input")
		}
	}
	if _, ok := percentile(nil, 0.5); ok {
		t.Error("percentile of no samples reported ok")
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v", got)
	}
	if got := medianDur([]time.Duration{3, 9, 1}); got != 3 {
		t.Errorf("medianDur = %v", got)
	}
}

func TestTypicalIsGeomeanOfIssueMedians(t *testing.T) {
	b := byIssue{}
	for _, d := range []time.Duration{1, 2, 100} {
		b.add("a", d*time.Millisecond) // median 2ms despite the outlier
	}
	b.merge(byIssue{"b": {8 * time.Millisecond}})
	if got := b.typicalMs(); absDiff(got, 4) > 1e-9 {
		t.Errorf("typicalMs = %v, want 4 (geomean of 2 and 8)", got)
	}
}

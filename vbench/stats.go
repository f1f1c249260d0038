package main

import (
	"math"
	"sort"
	"time"
)

// minTail is how many samples must lie beyond a reported percentile: a p90
// over 50 samples rests on five values and is not reported.
const minTail = 10

// percentile returns the nearest-rank q-quantile (0 < q < 1) of xs and
// whether at least minTail samples lie strictly beyond it. xs is not
// modified. The median is always reported (ok is ignored for q = 0.5 by
// callers); tails need the sample count.
func percentile(xs []float64, q float64) (v float64, ok bool) {
	n := len(xs)
	if n == 0 {
		return 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	idx := int(math.Ceil(q*float64(n))) - 1
	if idx < 0 {
		idx = 0
	}
	return s[idx], n-idx-1 >= minTail
}

// median is the middle value (mean of the two middle values for even n).
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// byIssue groups latencies by the issue they were measured on.
type byIssue map[string][]time.Duration

func (b byIssue) add(issue string, d time.Duration) { b[issue] = append(b[issue], d) }

// merge adds other's samples to b.
func (b byIssue) merge(other byIssue) {
	for k, v := range other {
		b[k] = append(b[k], v...)
	}
}

// typicalMs is the geometric mean over issues of each issue's median, in
// milliseconds. Issues cost from milliseconds to seconds, so a median over
// the pooled mix jumps between issues from run to run; the per-issue median
// sheds scheduling outliers and the geometric mean moves with every issue.
func (b byIssue) typicalMs() float64 {
	var meds []float64
	for _, ds := range b {
		meds = append(meds, median(ms(ds)))
	}
	return geomean(meds)
}

// geomean is the geometric mean of positive xs.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// ms converts durations to float milliseconds.
func ms(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}

// medianDur is the median of ds.
func medianDur(ds []time.Duration) time.Duration {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = float64(d)
	}
	return time.Duration(median(xs))
}

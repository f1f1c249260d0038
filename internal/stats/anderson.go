// Package stats implements the statistics that vProf's post-profiling
// analysis relies on (paper §5.1): the k-sample Anderson-Darling test used
// to decide whether value-sample distributions from normal and buggy
// executions differ, and the Hellinger distance used to quantify how much
// they differ. It also provides the histogram, delta and run-length helpers
// the variable-discounter builds its three anomaly dimensions from.
//
// Everything is implemented from scratch on the standard library; the
// Anderson-Darling implementation follows Scholz & Stephens (1987), "K-Sample
// Anderson-Darling Tests", using the midrank (tie-aware) statistic and the
// same critical-value interpolation SciPy's anderson_ksamp uses — the paper's
// analysis was written in Python on top of SciPy.
package stats

import (
	"errors"
	"math"
	"sync"
)

// ErrDegenerate is returned by ADKSample when the test is undefined: fewer
// than two samples, an empty sample, or all pooled observations equal.
var ErrDegenerate = errors.New("stats: anderson-darling test undefined for input")

// ADResult is the outcome of a k-sample Anderson-Darling test.
type ADResult struct {
	// A2akN is the tie-adjusted rank statistic.
	A2akN float64
	// Stat is the standardized statistic (A2akN - (k-1)) / sigma.
	Stat float64
	// P is the approximate significance level at which the null
	// hypothesis (all samples drawn from a common distribution) can be
	// rejected. It is clamped to [0.001, 0.25] outside the interpolation
	// range, as in SciPy.
	P float64
}

// adScratch holds the per-call working buffers of ADKSample. Calls are hot
// (one per variable per dimension, across every workload of a table run) and
// were allocation-bound; the buffers are pooled and resized in place so the
// steady state allocates nothing. Pooling only changes where the memory
// comes from — the arithmetic and its order are untouched.
type adScratch struct {
	zstar  []float64
	lj, bj []float64
	n, cur []int
}

var adScratchPool = sync.Pool{New: func() any { return new(adScratch) }}

// grow returns buf with length n, reusing its backing array when possible.
func grow[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// ADKSample runs the k-sample Anderson-Darling test on the given samples,
// each a counted multiset. It costs O(k x distinct values), independent of
// the observation counts, and is safe for concurrent use. Every quantity it
// sums per distinct value — multiplicities, cumulative counts, midranks — is
// an integer (or half-integer) count, exact in float64, so the result is
// bit-identical to the same test run on the expanded observation series.
func ADKSample(samples ...Multiset) (ADResult, error) {
	k := len(samples)
	if k < 2 {
		return ADResult{}, ErrDegenerate
	}
	sc := adScratchPool.Get().(*adScratch)
	defer adScratchPool.Put(sc)
	n := grow(sc.n, k)
	sc.n = n
	N, D := 0, 0
	for i, s := range samples {
		t := int(s.Total())
		if t == 0 {
			return ADResult{}, ErrDegenerate
		}
		n[i] = t
		N += t
		D += len(s)
	}
	if N < 4 {
		return ADResult{}, ErrDegenerate
	}

	// Distinct pooled values zstar (a k-way merge of the samples' distinct
	// values), their pooled multiplicities lj and midrank positions bj.
	zstar := grow(sc.zstar, D)[:0]
	lj := grow(sc.lj, D)[:0]
	bj := grow(sc.bj, D)[:0]
	cur := grow(sc.cur, k)
	for i := range cur {
		cur[i] = 0
	}
	below := 0 // pooled observations smaller than the current value
	for {
		var v float64
		found := false
		for i, s := range samples {
			if c := cur[i]; c < len(s) && (!found || s[c].V < v) {
				v, found = s[c].V, true
			}
		}
		if !found {
			break
		}
		m := 0
		for i, s := range samples {
			if c := cur[i]; c < len(s) && s[c].V == v {
				m += int(s[c].N)
				cur[i]++
			}
		}
		l := float64(m)
		zstar = append(zstar, v)
		lj = append(lj, l)
		bj = append(bj, float64(below)+l/2)
		below += m
	}
	sc.zstar, sc.lj, sc.bj, sc.cur = zstar, lj, bj, cur
	if len(zstar) == 1 {
		return ADResult{}, ErrDegenerate
	}

	fN := float64(N)
	var a2akN float64
	for i, s := range samples {
		var inner float64
		c, right := 0, 0 // right: observations of s that are <= zstar[j]
		for j, v := range zstar {
			f := 0
			if c < len(s) && s[c].V == v {
				f = int(s[c].N)
				c++
			}
			right += f
			fij := float64(f)
			mij := float64(right) - fij/2
			denom := bj[j]*(fN-bj[j]) - fN*lj[j]/4
			if denom <= 0 {
				continue
			}
			num := fN*mij - bj[j]*float64(n[i])
			inner += lj[j] / fN * num * num / denom
		}
		a2akN += inner / float64(n[i])
	}
	a2akN *= (fN - 1) / fN

	sigmaSq := adVariance(n)
	if sigmaSq <= 0 {
		return ADResult{}, ErrDegenerate
	}
	m := float64(k - 1)
	stat := (a2akN - m) / math.Sqrt(sigmaSq)

	return ADResult{A2akN: a2akN, Stat: stat, P: adPValue(stat, m)}, nil
}

// adVariance returns the variance of the k-sample statistic under the null
// for samples of sizes n (Scholz & Stephens eq. 7), which must pool at least
// four observations. It costs O(len(n) + N), N the pooled size, and touches
// no shared state.
func adVariance(n []int) float64 {
	N := 0
	var H float64
	for _, ni := range n {
		N += ni
		H += 1 / float64(ni)
	}
	h, g := harmonicTerms(N)
	fN, fk := float64(N), float64(len(n))
	a := (4*g-6)*(fk-1) + (10-6*g)*H
	b := (2*g-4)*fk*fk + 8*h*fk + (2*g-14*h-4)*H - 8*h + 4*g - 6
	c := (6*h+2*g-2)*fk*fk + (4*h-4*g+6)*fk + (2*h-6)*H + 4*h
	d := (2*h+6)*fk*fk - 4*h*fk
	return (a*fN*fN*fN + b*fN*fN + c*fN + d) /
		((fN - 1) * (fN - 2) * (fN - 3))
}

// harmonicTerms returns the h and g terms of the Scholz & Stephens variance
// formula for a pooled size of N >= 2:
//
//	h = sum_{i=1}^{N-1} 1/i
//	g = sum_{i=1}^{N-2} sum_{j=i+1}^{N-1} 1/((N-i) j)
//
// One backward pass computes both: the inner sum of g is the suffix sum of
// 1/j, so g costs O(N) instead of O(N^2). It is a pure function of N.
func harmonicTerms(N int) (h, g float64) {
	var suf float64 // sum_{j=i+1}^{N-1} 1/j
	for i := N - 2; i >= 1; i-- {
		suf += 1 / float64(i+1)
		g += suf / float64(N-i)
	}
	return suf + 1, g
}

// Interpolation tables from Scholz & Stephens (1987), Table 2, as used by
// SciPy: critical values at the listed significance levels are approximated
// by b0 + b1/sqrt(m) + b2/m, then log(sig) is fit quadratically in the
// critical value and evaluated at the observed statistic.
var (
	adSig = []float64{0.25, 0.10, 0.05, 0.025, 0.01, 0.005, 0.001}
	adB0  = []float64{0.675, 1.281, 1.645, 1.960, 2.326, 2.573, 3.085}
	adB1  = []float64{-0.245, 0.250, 0.678, 1.149, 1.822, 2.364, 3.615}
	adB2  = []float64{-0.105, -0.305, -0.362, -0.391, -0.396, -0.345, -0.154}

	// adLogSig is log(adSig), fixed at init so the hot p-value path takes
	// no logarithms and allocates nothing.
	adLogSig = func() [7]float64 {
		var out [7]float64
		for i, s := range adSig {
			out[i] = math.Log(s)
		}
		return out
	}()
)

func adPValue(stat, m float64) float64 {
	var crit [7]float64
	for i := range adSig {
		crit[i] = adB0[i] + adB1[i]/math.Sqrt(m) + adB2[i]/m
	}
	c0, c1, c2 := quadFit(crit[:], adLogSig[:])
	p := math.Exp(c0 + c1*stat + c2*stat*stat)
	// Clamp outside the table range, as SciPy does.
	if stat < crit[0] {
		return 0.25
	}
	if stat > crit[len(crit)-1] {
		return 0.001
	}
	if p > 0.25 {
		p = 0.25
	}
	if p < 0.001 {
		p = 0.001
	}
	return p
}

// quadFit fits y ~= c0 + c1*x + c2*x^2 by least squares.
func quadFit(x, y []float64) (c0, c1, c2 float64) {
	var s0, s1, s2, s3, s4 float64
	var t0, t1, t2 float64
	for i := range x {
		xi, yi := x[i], y[i]
		x2 := xi * xi
		s0++
		s1 += xi
		s2 += x2
		s3 += x2 * xi
		s4 += x2 * x2
		t0 += yi
		t1 += xi * yi
		t2 += x2 * yi
	}
	// Solve the 3x3 normal equations with Cramer's rule.
	det := s0*(s2*s4-s3*s3) - s1*(s1*s4-s2*s3) + s2*(s1*s3-s2*s2)
	if det == 0 {
		return 0, 0, 0
	}
	c0 = (t0*(s2*s4-s3*s3) - s1*(t1*s4-t2*s3) + s2*(t1*s3-t2*s2)) / det
	c1 = (s0*(t1*s4-t2*s3) - t0*(s1*s4-s2*s3) + s2*(s1*t2-s2*t1)) / det
	c2 = (s0*(s2*t2-s3*t1) - s1*(s1*t2-s2*t1) + t0*(s1*s3-s2*s2)) / det
	return c0, c1, c2
}

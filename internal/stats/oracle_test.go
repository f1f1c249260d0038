package stats

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// This file keeps the slice-based Anderson-Darling and Hellinger kernels —
// the form that sorts the expanded observation series — as oracles for the
// counted-multiset kernels, and checks the two bit for bit.

// ms returns the counted multiset of s without touching s.
func ms(s []float64) Multiset { return Tally(append([]float64(nil), s...)) }

// adSlices runs ADKSample on observation series.
func adSlices(samples ...[]float64) (ADResult, error) {
	m := make([]Multiset, len(samples))
	for i, s := range samples {
		m[i] = ms(s)
	}
	return ADKSample(m...)
}

// hellSlices runs Hellinger on observation series.
func hellSlices(a, b []float64) float64 { return Hellinger(ms(a), ms(b)) }

// adkSampleOracle is the slice-based k-sample Anderson-Darling test.
func adkSampleOracle(samples ...[]float64) (ADResult, error) {
	k := len(samples)
	if k < 2 {
		return ADResult{}, ErrDegenerate
	}
	n := make([]int, k)
	N := 0
	for i, s := range samples {
		if len(s) == 0 {
			return ADResult{}, ErrDegenerate
		}
		n[i] = len(s)
		N += len(s)
	}
	if N < 4 {
		return ADResult{}, ErrDegenerate
	}
	var pooled []float64
	for _, s := range samples {
		pooled = append(pooled, s...)
	}
	sort.Float64s(pooled)
	if pooled[0] == pooled[N-1] {
		return ADResult{}, ErrDegenerate
	}

	zstar := []float64{pooled[0]}
	for _, v := range pooled[1:] {
		if v != zstar[len(zstar)-1] {
			zstar = append(zstar, v)
		}
	}
	L := len(zstar)
	searchLeft := func(s []float64, v float64) int { return sort.SearchFloat64s(s, v) }
	searchRight := func(s []float64, v float64) int {
		return sort.Search(len(s), func(i int) bool { return s[i] > v })
	}
	lj := make([]float64, L)
	bj := make([]float64, L)
	for j, v := range zstar {
		l := searchLeft(pooled, v)
		r := searchRight(pooled, v)
		lj[j] = float64(r - l)
		bj[j] = float64(l) + lj[j]/2
	}

	fN := float64(N)
	var a2akN float64
	for i := 0; i < k; i++ {
		s := append([]float64(nil), samples[i]...)
		sort.Float64s(s)
		var inner float64
		for j, v := range zstar {
			right := float64(searchRight(s, v))
			fij := right - float64(searchLeft(s, v))
			mij := right - fij/2
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

	// Eq. 7 spelled out with the same operation order as adVariance. The
	// harmonic terms are shared with production: they depend on N alone,
	// and TestHarmonicTermsExact checks them against exact values.
	var H float64
	for _, ni := range n {
		H += 1 / float64(ni)
	}
	h, g := harmonicTerms(N)
	fk := float64(k)
	a := (4*g-6)*(fk-1) + (10-6*g)*H
	b := (2*g-4)*fk*fk + 8*h*fk + (2*g-14*h-4)*H - 8*h + 4*g - 6
	c := (6*h+2*g-2)*fk*fk + (4*h-4*g+6)*fk + (2*h-6)*H + 4*h
	d := (2*h+6)*fk*fk - 4*h*fk
	sigmaSq := (a*fN*fN*fN + b*fN*fN + c*fN + d) /
		((fN - 1) * (fN - 2) * (fN - 3))
	if sigmaSq <= 0 {
		return ADResult{}, ErrDegenerate
	}
	m := fk - 1
	stat := (a2akN - m) / math.Sqrt(sigmaSq)
	return ADResult{A2akN: a2akN, Stat: stat, P: adPValue(stat, m)}, nil
}

// hellingerBinsOracle is the slice-based Hellinger distance.
func hellingerBinsOracle(a, b []float64, bins int) float64 {
	switch {
	case len(a) == 0 && len(b) == 0:
		return 0
	case len(a) == 0 || len(b) == 0:
		return 1
	}
	if bins < 2 {
		bins = 2
	}
	sa := append([]float64(nil), a...)
	sb := append([]float64(nil), b...)
	sort.Float64s(sa)
	sort.Float64s(sb)

	var distinct []float64
	for i, j := 0, 0; i < len(sa) || j < len(sb); {
		var v float64
		if j >= len(sb) || (i < len(sa) && sa[i] <= sb[j]) {
			v = sa[i]
			i++
		} else {
			v = sb[j]
			j++
		}
		if len(distinct) == 0 || v != distinct[len(distinct)-1] {
			distinct = append(distinct, v)
		}
	}

	sortedPMF := func(s []float64) []float64 {
		p := make([]float64, len(distinct))
		d := 0
		for _, v := range s {
			for distinct[d] != v {
				d++
			}
			p[d]++
		}
		for i := range p {
			p[i] /= float64(len(s))
		}
		return p
	}
	binned := func(s []float64, lo, hi float64) []float64 {
		p := make([]float64, bins)
		width := (hi - lo) / float64(bins)
		if width <= 0 {
			p[0] = 1
			return p
		}
		for _, v := range s {
			i := int((v - lo) / width)
			if i >= bins {
				i = bins - 1
			}
			if i < 0 {
				i = 0
			}
			p[i]++
		}
		for i := range p {
			p[i] /= float64(len(s))
		}
		return p
	}

	var pa, pb []float64
	if len(distinct) <= bins {
		pa, pb = sortedPMF(sa), sortedPMF(sb)
	} else {
		lo, hi := distinct[0], distinct[len(distinct)-1]
		pa, pb = binned(sa, lo, hi), binned(sb, lo, hi)
	}
	var bc float64
	for i := range pa {
		bc += math.Sqrt(pa[i] * pb[i])
	}
	if bc > 1 {
		bc = 1
	}
	return math.Sqrt(1 - bc)
}

// randKernelSeries draws a series of one of the shapes the kernels must
// agree on: heavy ties, many distinct values (Hellinger's binned path),
// wide-range reals, or a near-constant series.
func randKernelSeries(rng *rand.Rand, n int) []float64 {
	s := make([]float64, n)
	shape := rng.Intn(4)
	for i := range s {
		switch shape {
		case 0: // heavy ties
			s[i] = float64(rng.Intn(4))
		case 1: // more distinct values than DefaultHellingerBins
			s[i] = float64(rng.Intn(500) - 250)
		case 2: // reals over a wide range
			s[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(8)))
		default: // almost constant
			s[i] = 7
			if rng.Intn(10) == 0 {
				s[i] = 8
			}
		}
	}
	return s
}

func sameAD(t *testing.T, what string, got ADResult, gotErr error, want ADResult, wantErr error) {
	t.Helper()
	if gotErr != wantErr {
		t.Fatalf("%s: err %v, oracle %v", what, gotErr, wantErr)
	}
	if math.Float64bits(got.A2akN) != math.Float64bits(want.A2akN) ||
		math.Float64bits(got.Stat) != math.Float64bits(want.Stat) ||
		math.Float64bits(got.P) != math.Float64bits(want.P) {
		t.Fatalf("%s: counted %+v, oracle %+v", what, got, want)
	}
}

// TestADKSampleCountedMatchesOracle: the counted-multiset Anderson-Darling
// kernel reproduces the slice-based one bit for bit — A2akN, Stat and P —
// and returns the same ErrDegenerate on undefined inputs.
func TestADKSampleCountedMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(20231))
	for trial := 0; trial < 2000; trial++ {
		k := 2 + rng.Intn(2)
		samples := make([][]float64, k)
		for i := range samples {
			samples[i] = randKernelSeries(rng, rng.Intn(60))
		}
		got, gerr := adSlices(samples...)
		want, werr := adkSampleOracle(samples...)
		sameAD(t, "random", got, gerr, want, werr)
	}

	degenerate := [][][]float64{
		{},
		{{1, 2, 3}},
		{{1, 2, 3}, {}},
		{{}, {4, 5, 6}},
		{{1}, {2, 3}},       // N < 4
		{{5, 5}, {5, 5, 5}}, // all pooled values equal
		{{0}, {0}, {0}, {0}},
	}
	for i, samples := range degenerate {
		got, gerr := adSlices(samples...)
		want, werr := adkSampleOracle(samples...)
		if werr != ErrDegenerate {
			t.Fatalf("case %d: oracle err %v, want ErrDegenerate", i, werr)
		}
		sameAD(t, "degenerate", got, gerr, want, werr)
	}
}

// TestHellingerCountedMatchesOracle: the counted-multiset Hellinger kernel
// reproduces the slice-based one bit for bit on exact and binned supports,
// one-sided and empty inputs, and several bin budgets.
func TestHellingerCountedMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(20232))
	for trial := 0; trial < 2000; trial++ {
		a := randKernelSeries(rng, rng.Intn(80))
		b := randKernelSeries(rng, rng.Intn(80))
		if rng.Intn(10) == 0 {
			b = nil
		}
		for _, bins := range []int{1, 2, 5, DefaultHellingerBins} {
			got := HellingerBins(ms(a), ms(b), bins)
			want := hellingerBinsOracle(a, b, bins)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("bins %d: counted %v, oracle %v (a=%v b=%v)", bins, got, want, a, b)
			}
		}
	}
	if got := Hellinger(nil, nil); got != hellingerBinsOracle(nil, nil, DefaultHellingerBins) {
		t.Fatalf("both empty: %v", got)
	}
}

// TestTally: Tally's multiset expands back to the sorted input.
func TestTally(t *testing.T) {
	rng := rand.New(rand.NewSource(20233))
	for trial := 0; trial < 200; trial++ {
		s := randKernelSeries(rng, rng.Intn(50))
		m := ms(s)
		if m.Total() != int64(len(s)) {
			t.Fatalf("Total %d, want %d", m.Total(), len(s))
		}
		var ex []float64
		for i, c := range m {
			if c.N <= 0 || (i > 0 && !(m[i-1].V < c.V)) {
				t.Fatalf("not a counted multiset: %v", m)
			}
			for j := int64(0); j < c.N; j++ {
				ex = append(ex, c.V)
			}
		}
		want := append([]float64(nil), s...)
		sort.Float64s(want)
		for i := range want {
			if ex[i] != want[i] {
				t.Fatalf("expansion %v != sorted input %v", ex, want)
			}
		}
	}
}

package stats

import (
	"math"
	"math/big"
	"math/rand"
	"testing"
)

// This file checks the variance terms of the Anderson-Darling test against
// references evaluated in 256-bit floating point, where rounding error is
// far below anything a float64 result can show.

const exactPrec = 256

func bigF(x float64) *big.Float { return new(big.Float).SetPrec(exactPrec).SetFloat64(x) }

func bigInt(n int) *big.Float { return new(big.Float).SetPrec(exactPrec).SetInt64(int64(n)) }

func bigAdd(x, y *big.Float) *big.Float { return new(big.Float).SetPrec(exactPrec).Add(x, y) }

func bigSub(x, y *big.Float) *big.Float { return new(big.Float).SetPrec(exactPrec).Sub(x, y) }

func bigMul(xs ...*big.Float) *big.Float {
	p := bigF(1)
	for _, x := range xs {
		p.Mul(p, x)
	}
	return p
}

func bigQuo(x, y *big.Float) *big.Float { return new(big.Float).SetPrec(exactPrec).Quo(x, y) }

// exactHarmonic returns h and g for a pooled size of N in 256-bit floating
// point, summed in the same formula as harmonicTerms.
func exactHarmonic(N int) (h, g *big.Float) {
	one := bigF(1)
	suf, g := bigF(0), bigF(0)
	for i := N - 2; i >= 1; i-- {
		suf = bigAdd(suf, bigQuo(one, bigInt(i+1)))
		g = bigAdd(g, bigQuo(suf, bigInt(N-i)))
	}
	return bigAdd(suf, one), g
}

// ulps returns how many float64 steps got lies from want rounded to float64;
// both must be positive.
func ulps(got float64, want *big.Float) uint64 {
	w, _ := want.Float64()
	a, b := math.Float64bits(got), math.Float64bits(w)
	if a > b {
		return a - b
	}
	return b - a
}

// TestHarmonicTermsExact: h and g of every pooled size a diagnosis can meet
// are within 64 ulp of their exact values. The reference's suffix-sum form
// is first checked against the double sum that defines g, in exact rational
// arithmetic.
func TestHarmonicTermsExact(t *testing.T) {
	for N := 4; N <= 40; N++ {
		hr, gr := new(big.Rat), new(big.Rat)
		for i := 1; i < N; i++ {
			hr.Add(hr, big.NewRat(1, int64(i)))
		}
		for i := 1; i <= N-2; i++ {
			for j := i + 1; j <= N-1; j++ {
				gr.Add(gr, big.NewRat(1, int64((N-i)*j)))
			}
		}
		h, g := exactHarmonic(N)
		for _, c := range []struct {
			name string
			ref  *big.Float
			def  *big.Rat
		}{{"h", h, hr}, {"g", g, gr}} {
			def := new(big.Float).SetPrec(exactPrec).SetRat(c.def)
			rel := bigQuo(bigSub(c.ref, def), def)
			if f, _ := rel.Float64(); math.Abs(f) > 1e-70 {
				t.Fatalf("N=%d: reference %s off its definition by %g", N, c.name, f)
			}
		}
	}

	var sizes []int
	for N := 4; N <= 400; N++ {
		sizes = append(sizes, N)
	}
	// 22191 is the largest pooled size of a Table 3 diagnosis.
	sizes = append(sizes, 1000, 5000, 22191, 30000, 65536)
	const maxULP = 64
	var worstH, worstG uint64
	for _, N := range sizes {
		h, g := harmonicTerms(N)
		eh, eg := exactHarmonic(N)
		uh, ug := ulps(h, eh), ulps(g, eg)
		if uh > maxULP || ug > maxULP {
			t.Errorf("N=%d: h %d ulp, g %d ulp off exact (max %d)", N, uh, ug, maxULP)
		}
		worstH, worstG = max(worstH, uh), max(worstG, ug)
	}
	t.Logf("worst case over %d sizes: h %d ulp, g %d ulp", len(sizes), worstH, worstG)
}

// exactVariance evaluates Scholz & Stephens eq. 7 for sample sizes n in
// 256-bit floating point.
func exactVariance(n []int) *big.Float {
	N := 0
	H := bigF(0)
	for _, ni := range n {
		N += ni
		H = bigAdd(H, bigQuo(bigF(1), bigInt(ni)))
	}
	h, g := exactHarmonic(N)
	fN, k := bigInt(N), bigInt(len(n))
	kk := bigMul(k, k)
	// a = (4g-6)(k-1) + (10-6g)H
	a := bigAdd(
		bigMul(bigSub(bigMul(bigF(4), g), bigF(6)), bigSub(k, bigF(1))),
		bigMul(bigSub(bigF(10), bigMul(bigF(6), g)), H))
	// b = (2g-4)k^2 + 8hk + (2g-14h-4)H - 8h + 4g - 6
	b := bigMul(bigSub(bigMul(bigF(2), g), bigF(4)), kk)
	b = bigAdd(b, bigMul(bigF(8), h, k))
	b = bigAdd(b, bigMul(bigSub(bigSub(bigMul(bigF(2), g), bigMul(bigF(14), h)), bigF(4)), H))
	b = bigSub(b, bigMul(bigF(8), h))
	b = bigAdd(b, bigMul(bigF(4), g))
	b = bigSub(b, bigF(6))
	// c = (6h+2g-2)k^2 + (4h-4g+6)k + (2h-6)H + 4h
	cc := bigMul(bigSub(bigAdd(bigMul(bigF(6), h), bigMul(bigF(2), g)), bigF(2)), kk)
	cc = bigAdd(cc, bigMul(bigAdd(bigSub(bigMul(bigF(4), h), bigMul(bigF(4), g)), bigF(6)), k))
	cc = bigAdd(cc, bigMul(bigSub(bigMul(bigF(2), h), bigF(6)), H))
	cc = bigAdd(cc, bigMul(bigF(4), h))
	// d = (2h+6)k^2 - 4hk
	d := bigSub(bigMul(bigAdd(bigMul(bigF(2), h), bigF(6)), kk), bigMul(bigF(4), h, k))

	num := bigAdd(bigAdd(bigMul(a, fN, fN, fN), bigMul(b, fN, fN)), bigAdd(bigMul(cc, fN), d))
	den := bigMul(bigSub(fN, bigF(1)), bigSub(fN, bigF(2)), bigSub(fN, bigF(3)))
	return bigQuo(num, den)
}

// TestADVarianceExact: adVariance agrees with eq. 7 evaluated in 256-bit
// floating point to a relative error of 1e-12 on random sample sizes.
func TestADVarianceExact(t *testing.T) {
	rng := rand.New(rand.NewSource(1987))
	const maxRel = 1e-12
	var worst float64
	for trial := 0; trial < 50; trial++ {
		n := make([]int, 2+rng.Intn(4))
		N := 0
		for N < 4 {
			N = 0
			for i := range n {
				n[i] = 1 + rng.Intn(6000)
				N += n[i]
			}
		}
		got := adVariance(n)
		want := exactVariance(n)
		rel, _ := bigQuo(bigSub(bigF(got), want), want).Float64()
		if math.Abs(rel) > maxRel {
			w, _ := want.Float64()
			t.Errorf("n=%v: adVariance %v, exact %v (relative error %g)", n, got, w, rel)
		}
		worst = math.Max(worst, math.Abs(rel))
	}
	t.Logf("worst relative error over 50 cases: %g", worst)
}

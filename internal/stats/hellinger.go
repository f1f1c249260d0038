package stats

import (
	"math"
	"sync"
)

// DefaultHellingerBins is the bin count used when two samples have too many
// distinct values to compare value-by-value.
const DefaultHellingerBins = 32

// hellScratch pools the two PMF buffers of HellingerBins. The kernel is
// called once per (variable, dimension) across every workload; pooling
// removes the steady-state allocations without touching the arithmetic.
type hellScratch struct {
	pa, pb []float64
}

var hellScratchPool = sync.Pool{New: func() any { return new(hellScratch) }}

// Hellinger returns the Hellinger distance between the empirical
// distributions of two samples, given as counted multisets, in [0, 1]. 0
// means identical distributions, 1 means disjoint support. It is safe for
// concurrent use.
//
// The samples are discretized onto a common set of bins: exact values when
// the combined number of distinct values is small, equal-width bins over the
// combined range otherwise. An empty sample is treated as disjoint from a
// non-empty one (distance 1); two empty samples have distance 0.
func Hellinger(a, b Multiset) float64 {
	return HellingerBins(a, b, DefaultHellingerBins)
}

// HellingerBins is Hellinger with an explicit bin budget (minimum 2). Bin
// masses are sums of integer counts, exact in float64, so the distance is
// bit-identical to the one computed over the expanded observation series.
func HellingerBins(a, b Multiset, bins int) float64 {
	na, nb := a.Total(), b.Total()
	switch {
	case na == 0 && nb == 0:
		return 0
	case na == 0 || nb == 0:
		return 1
	}
	if bins < 2 {
		bins = 2
	}

	sc := hellScratchPool.Get().(*hellScratch)
	defer hellScratchPool.Put(sc)
	pa := grow(sc.pa, len(a)+len(b))
	pb := grow(sc.pb, len(a)+len(b))
	if d := exactCounts(a, b, pa, pb); d <= bins {
		pa, pb = pa[:d], pb[:d]
		normalize(pa, na)
		normalize(pb, nb)
	} else {
		lo, hi := a[0].V, a[len(a)-1].V
		if b[0].V < lo {
			lo = b[0].V
		}
		if b[len(b)-1].V > hi {
			hi = b[len(b)-1].V
		}
		pa = binnedPMF(a, na, lo, hi, bins, pa[:bins])
		pb = binnedPMF(b, nb, lo, hi, bins, pb[:bins])
	}
	sc.pa, sc.pb = pa, pb

	// H^2 = 1 - sum sqrt(p_i * q_i)  (Bhattacharyya coefficient).
	var bc float64
	for i := range pa {
		bc += math.Sqrt(pa[i] * pb[i])
	}
	if bc > 1 {
		bc = 1
	}
	return math.Sqrt(1 - bc)
}

// exactCounts writes the counts of a and b over their distinct union, in
// ascending value order, into pa and pb and returns the union's size.
func exactCounts(a, b Multiset, pa, pb []float64) int {
	i, j, d := 0, 0, 0
	for ; i < len(a) || j < len(b); d++ {
		pa[d], pb[d] = 0, 0
		switch {
		case j >= len(b) || (i < len(a) && a[i].V < b[j].V):
			pa[d] = float64(a[i].N)
			i++
		case i >= len(a) || b[j].V < a[i].V:
			pb[d] = float64(b[j].N)
			j++
		default:
			pa[d], pb[d] = float64(a[i].N), float64(b[j].N)
			i++
			j++
		}
	}
	return d
}

// binnedPMF writes the PMF of s (n observations) over bins equal-width bins
// spanning [lo, hi] into p.
func binnedPMF(s Multiset, n int64, lo, hi float64, bins int, p []float64) []float64 {
	for i := range p {
		p[i] = 0
	}
	width := (hi - lo) / float64(bins)
	if width <= 0 {
		p[0] = 1
		return p
	}
	for _, c := range s {
		i := int((c.V - lo) / width)
		if i >= bins {
			i = bins - 1
		}
		if i < 0 {
			i = 0
		}
		p[i] += float64(c.N)
	}
	normalize(p, n)
	return p
}

// normalize divides the counts in p by the sample size n.
func normalize(p []float64, n int64) {
	fn := float64(n)
	for i := range p {
		p[i] /= fn
	}
}

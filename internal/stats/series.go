package stats

import "sort"

// Count is one distinct value of a counted multiset and its multiplicity.
type Count struct {
	V float64
	N int64
}

// Multiset is a counted multiset: distinct values in ascending order, each
// with a positive count. ADKSample and Hellinger take samples in this form,
// so their cost follows the number of distinct values, not of observations.
type Multiset []Count

// Total returns the number of observations.
func (m Multiset) Total() int64 {
	var n int64
	for _, c := range m {
		n += c.N
	}
	return n
}

// Tally sorts s in place and returns its counted multiset (nil when s is
// empty).
func Tally(s []float64) Multiset {
	if len(s) == 0 {
		return nil
	}
	sort.Float64s(s)
	d := 1
	for i := 1; i < len(s); i++ {
		if s[i] != s[i-1] {
			d++
		}
	}
	out := make(Multiset, 0, d)
	for i, v := range s {
		if i == 0 || v != s[i-1] {
			out = append(out, Count{V: v})
		}
		out[len(out)-1].N++
	}
	return out
}

// Deltas returns successive differences s[i+1]-s[i] of a time-ordered sample
// series.
func Deltas(s []float64) []float64 {
	if len(s) < 2 {
		return nil
	}
	out := make([]float64, len(s)-1)
	for i := 1; i < len(s); i++ {
		out[i-1] = s[i] - s[i-1]
	}
	return out
}

// Compress collapses a time-ordered series to one entry per run of equal
// consecutive values.
func Compress(s []float64) []float64 {
	if len(s) == 0 {
		return nil
	}
	runs := 1
	for i := 1; i < len(s); i++ {
		if s[i] != s[i-1] {
			runs++
		}
	}
	out := make([]float64, 0, runs)
	for i, v := range s {
		if i == 0 || v != s[i-1] {
			out = append(out, v)
		}
	}
	return out
}

// ChangeDeltas returns the differences between successive *distinct* values
// of a time-ordered series: the discounter's "how much the values change"
// dimension (§5.1). Zero-deltas from a value merely persisting across alarms
// are excluded — persistence is measured by RunLengths, the "how often"
// dimension — so the two dimensions stay orthogonal.
func ChangeDeltas(s []float64) []float64 {
	return Deltas(Compress(s))
}

// RunLengths returns the lengths of maximal runs of equal consecutive values
// in a time-ordered series: the discounter's "processing cost" dimension
// (how many alarm intervals a value stays the same).
func RunLengths(s []float64) []float64 {
	if len(s) == 0 {
		return nil
	}
	runs := 1
	for i := 1; i < len(s); i++ {
		if s[i] != s[i-1] {
			runs++
		}
	}
	out := make([]float64, 0, runs)
	run := 1.0
	for i := 1; i < len(s); i++ {
		if s[i] == s[i-1] {
			run++
			continue
		}
		out = append(out, run)
		run = 1
	}
	return append(out, run)
}

// Mean returns the arithmetic mean, or 0 for an empty sample.
func Mean(s []float64) float64 {
	if len(s) == 0 {
		return 0
	}
	var sum float64
	for _, v := range s {
		sum += v
	}
	return sum / float64(len(s))
}

// MinMax returns the smallest and largest values; ok is false when s is
// empty.
func MinMax(s []float64) (lo, hi float64, ok bool) {
	if len(s) == 0 {
		return 0, 0, false
	}
	lo, hi = s[0], s[0]
	for _, v := range s[1:] {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	return lo, hi, true
}

// Ranks converts per-key costs into dense 1-based ranks, highest cost first.
// Keys with equal cost receive the same rank.
func Ranks(cost map[string]float64) map[string]int {
	type kv struct {
		k string
		v float64
	}
	all := make([]kv, 0, len(cost))
	for k, v := range cost {
		all = append(all, kv{k, v})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].v != all[j].v {
			return all[i].v > all[j].v
		}
		return all[i].k < all[j].k
	})
	ranks := make(map[string]int, len(all))
	rank := 0
	var prev float64
	for i, e := range all {
		if i == 0 || e.v != prev {
			rank++
			prev = e.v
		}
		ranks[e.k] = rank
	}
	return ranks
}

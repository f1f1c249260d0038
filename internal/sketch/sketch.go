// Package sketch provides mergeable per-variable summaries of value-assisted
// profiles: fixed-bucket value histograms, change-delta and run-length
// summaries, and count/sum/min/max moments, folded from a decoded profile
// once at ingest time. Sketches are the store's derived "summary section":
// diagnosing a new run against a stored baseline corpus reads only sketches
// (O(new runs)), never re-decoding old profile blobs, and sketch merge is
// associative, commutative and deterministic (fixed bucket boundaries,
// index-ordered variable lists), so a sharded store can combine partial
// sketches into one answer.
//
// The package also owns the one per-variable fold of a decoded profile:
// CountVars groups samples by variable, collapses them to one observation
// per alarm tick and counts the three discounter dimensions as exact
// counted multisets (VarCounts); UnitsByPC counts value-sample units.
// FromProfile buckets that fold into a sketch, and the full-profile analysis
// reads it unbucketed. VarSummary.Counts reads a sketch back in the same
// form, so internal/analysis runs one pipeline over both.
//
// Exactness: bucket boundaries are the identity for integral values with
// |v| <= 1<<20 — which covers run lengths, change deltas and the value
// ranges of the reproduced issues — so the analysis recomputes the
// variable-discounter verdicts bit-for-bit from sketches in that range.
// Larger magnitudes collapse into logarithmic buckets (16 per octave); there
// the rank-identity goldens in internal/harness gate the diagnosis instead
// of byte-for-byte equality.
package sketch

import (
	"cmp"
	"math"
	"slices"
	"sort"

	"vprof/internal/sampler"
	"vprof/internal/stats"
)

const (
	// exactMax bounds the identity range: integral values with magnitude
	// up to exactMax are their own bucket.
	exactMax = 1 << 20
	// subBuckets is the number of logarithmic buckets per power of two
	// outside the identity range (relative error <= 1/16).
	subBuckets = 16
)

// Bucket maps a value to its fixed bucket representative. The mapping is
// idempotent (Bucket(Bucket(v)) == Bucket(v)) and sign-symmetric; Inf and
// NaN pass through untouched (the codec rejects NaN at decode time).
func Bucket(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return v
	}
	a := math.Abs(v)
	if a <= exactMax && a == math.Trunc(a) {
		return v
	}
	frac, exp := math.Frexp(a) // a = frac * 2^exp, frac in [0.5, 1)
	k := int((frac*2 - 1) * subBuckets)
	if k < 0 {
		k = 0
	} else if k >= subBuckets {
		k = subBuckets - 1
	}
	rep := math.Ldexp(1+float64(k)/subBuckets, exp-1)
	if v < 0 {
		rep = -rep
	}
	return rep
}

// Hist is a fixed-bucket histogram: bucket representative -> observation
// count. The zero value (nil) is an empty histogram; Observe requires a
// non-nil map.
type Hist map[float64]int64

// Observe adds one observation of v to its bucket.
func (h Hist) Observe(v float64) { h[Bucket(v)]++ }

// Total returns the number of observations.
func (h Hist) Total() int64 {
	var n int64
	for _, c := range h {
		n += c
	}
	return n
}

// Multiset returns the histogram as a counted multiset: bucket
// representatives ascending, each with its observation count. This is the
// form the analysis kernels read, so its size follows the number of
// buckets, never the observation counts.
func (h Hist) Multiset() stats.Multiset {
	if len(h) == 0 {
		return nil
	}
	out := make(stats.Multiset, 0, len(h))
	for k, c := range h {
		if c > 0 {
			out = append(out, stats.Count{V: k, N: c})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].V < out[j].V })
	return out
}

// Clone returns a deep copy (nil stays nil).
func (h Hist) Clone() Hist {
	if h == nil {
		return nil
	}
	out := make(Hist, len(h))
	for k, c := range h {
		out[k] = c
	}
	return out
}

// MergeHist returns the bucket-wise sum of two histograms. Either argument
// may be nil; the inputs are not mutated.
func MergeHist(a, b Hist) Hist {
	if len(a) == 0 && len(b) == 0 {
		return nil
	}
	out := make(Hist, len(a)+len(b))
	for k, c := range a {
		out[k] += c
	}
	for k, c := range b {
		out[k] += c
	}
	return out
}

// HistOf buckets a raw series into a histogram (nil for an empty series).
func HistOf(series []float64) Hist {
	if len(series) == 0 {
		return nil
	}
	h := make(Hist)
	for _, v := range series {
		h.Observe(v)
	}
	return h
}

// bucketCounts buckets a counted multiset into a histogram (nil when
// empty).
func bucketCounts(m stats.Multiset) Hist {
	if len(m) == 0 {
		return nil
	}
	h := make(Hist, len(m))
	for _, c := range m {
		h[Bucket(c.V)] += c.N
	}
	return h
}

// VarSummary is the mergeable summary of one monitored variable in one (or
// a merged set of) profiled executions: the three discounter dimensions as
// histograms plus the plain moments.
type VarSummary struct {
	Func      string
	Name      string
	IsPointer bool

	// Count is the number of tick-collapsed observations (== Values
	// total); NumRuns the number of equal-value runs (== Runs total).
	Count   int64
	NumRuns int64
	// MaxRun is the longest equal-value run; Min/Max/Sum are exact
	// moments of the raw (unbucketed) observations, valid when Count > 0.
	MaxRun float64
	Min    float64
	Max    float64
	Sum    float64

	// Values, Deltas and Runs are the per-dimension histograms: the
	// tick-collapsed value series, its change deltas
	// (stats.ChangeDeltas), and its equal-value run lengths
	// (stats.RunLengths), all computed from the ordered series at fold
	// time and then bucketed.
	Values Hist
	Deltas Hist
	Runs   Hist

	// PCs are the distinct PCs at which the variable was sampled,
	// ascending (globals attribute to the functions containing them).
	PCs []int32
}

// Key returns the variable's identity ("func\x00name"), the sort key of
// Profile.Vars.
func (v *VarSummary) Key() string { return v.Func + "\x00" + v.Name }

// Merge folds other into v (same variable; callers must not merge summaries
// with different keys). Counts add, extrema combine, histograms sum, PC
// sets union.
func (v *VarSummary) Merge(other *VarSummary) {
	if other.Count > 0 {
		if v.Count == 0 || other.Min < v.Min {
			v.Min = other.Min
		}
		if v.Count == 0 || other.Max > v.Max {
			v.Max = other.Max
		}
	}
	v.Count += other.Count
	v.NumRuns += other.NumRuns
	v.Sum += other.Sum
	if other.MaxRun > v.MaxRun {
		v.MaxRun = other.MaxRun
	}
	v.IsPointer = v.IsPointer || other.IsPointer
	v.Values = MergeHist(v.Values, other.Values)
	v.Deltas = MergeHist(v.Deltas, other.Deltas)
	v.Runs = MergeHist(v.Runs, other.Runs)
	v.PCs = unionPCs(v.PCs, other.PCs)
}

func unionPCs(a, b []int32) []int32 {
	if len(b) == 0 {
		return a
	}
	if len(a) == 0 {
		return append([]int32(nil), b...)
	}
	out := make([]int32, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			out = append(out, a[i])
			i++
		case a[i] > b[j]:
			out = append(out, b[j])
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	return out
}

// Profile is the mergeable sketch of one profiled execution (or, after
// Merge, of several tick-disjoint executions summed — the corpus view a
// shard returns). It carries everything the analysis kernels need: the
// sparse PC histogram, per-PC value-sample units, and per-variable
// summaries, index-ordered by variable key.
type Profile struct {
	// BlobID is the content address of the profile blob the sketch was
	// folded from ("" for merged sketches).
	BlobID string

	Interval   int64
	TotalTicks int64
	NumAlarms  int64
	// HistLen is the PC-histogram length of the source profile (PCs in
	// Hist and UnitsByPC are < HistLen).
	HistLen int64

	// Hist is the sparse PC-sample histogram (zero counts omitted).
	Hist map[int32]int64
	// UnitsByPC counts distinct (tick, pc) value-sample units per PC
	// (see the UnitsByPC function).
	UnitsByPC map[int32]int64

	// Vars is sorted ascending by VarSummary.Key.
	Vars []VarSummary
}

// FromProfile folds a decoded profile into its sketch: CountVars' exact
// per-variable counts, bucketed. The fold is deterministic.
func FromProfile(p *sampler.Profile) *Profile {
	s := &Profile{
		Interval:   p.Interval,
		TotalTicks: p.TotalTicks,
		NumAlarms:  p.NumAlarms,
		HistLen:    int64(len(p.Hist)),
		Hist:       make(map[int32]int64),
		UnitsByPC:  UnitsByPC(p.Samples),
	}
	for pc, n := range p.Hist {
		if n != 0 {
			s.Hist[int32(pc)] = n
		}
	}
	vars := CountVars(p)
	s.Vars = make([]VarSummary, len(vars))
	for i := range vars {
		v := &vars[i]
		s.Vars[i] = VarSummary{
			Func: v.Func, Name: v.Name, IsPointer: v.IsPointer,
			Count: v.Count, NumRuns: v.NumRuns, MaxRun: v.MaxRun, Sum: v.Sum,
			Values: bucketCounts(v.Values),
			Deltas: bucketCounts(v.Deltas),
			Runs:   bucketCounts(v.Runs),
			PCs:    v.PCs,
		}
		if n := len(v.Values); n > 0 {
			s.Vars[i].Min, s.Vars[i].Max = v.Values[0].V, v.Values[n-1].V
		}
	}
	return s
}

// UnitsByPC counts value-sample units per PC: one unit per distinct
// (tick, pc) pair, so a variable re-sampled at every alarm (at a call site
// while a costly callee runs, via virtual unwinding) accrues one unit per
// alarm there. Summed over a function's PCs and multiplied by the interval,
// this is the paper's variable-based execution cost. Distinct pairs are
// found by sorting.
func UnitsByPC(samples []sampler.Sample) map[int32]int64 {
	type unit struct {
		tick int64
		pc   int32
	}
	us := make([]unit, len(samples))
	for i, smp := range samples {
		us[i] = unit{smp.Tick, smp.PC}
	}
	slices.SortFunc(us, func(a, b unit) int {
		if c := cmp.Compare(a.tick, b.tick); c != 0 {
			return c
		}
		return cmp.Compare(a.pc, b.pc)
	})
	out := make(map[int32]int64)
	for i, u := range us {
		if i == 0 || u != us[i-1] {
			out[u.pc]++
		}
	}
	return out
}

// VarCounts is one variable's observations in exact counted form: the
// tick-collapsed series' three discounter dimensions as counted multisets,
// plus its run statistics and sampled PCs. The analysis core reads this
// form for both decoded profiles (CountVars) and sketches
// (VarSummary.Counts).
type VarCounts struct {
	Func      string
	Name      string
	IsPointer bool

	// Samples are the variable's samples in recording order; nil when
	// converted from a sketch, which keeps no ordered trail.
	Samples []sampler.Sample

	// Count is the number of tick-collapsed observations, NumRuns the
	// number of equal-value runs and MaxRun the longest; Sum adds the
	// observations in time order (the sketch's exact moment).
	Count   int64
	NumRuns int64
	MaxRun  float64
	Sum     float64

	// Values, Deltas and Runs are the observations, their change deltas
	// (stats.ChangeDeltas) and their equal-value run lengths
	// (stats.RunLengths).
	Values stats.Multiset
	Deltas stats.Multiset
	Runs   stats.Multiset

	// PCs are the distinct PCs at which the variable was sampled,
	// ascending.
	PCs []int32
}

// Key returns the variable's identity ("func\x00name").
func (v *VarCounts) Key() string { return v.Func + "\x00" + v.Name }

// CountVars groups a profile's samples by variable and counts each group,
// ascending by key. Duplicate layout entries for one variable resolve to the
// first layout index, and samples stay in recording order.
func CountVars(p *sampler.Profile) []VarCounts {
	first := make(map[string]int32, len(p.Layout))
	order := make([]string, 0, len(p.Layout))
	for i, l := range p.Layout {
		key := l.Func + "\x00" + l.Name
		if _, ok := first[key]; !ok {
			first[key] = int32(i)
			order = append(order, key)
		}
	}
	sort.Strings(order)

	// Bucket samples by layout index in two passes: count, then fill
	// exactly-sized slices.
	counts := make([]int, len(p.Layout))
	for _, smp := range p.Samples {
		if smp.Layout >= 0 && int(smp.Layout) < len(counts) {
			counts[smp.Layout]++
		}
	}
	byLayout := make([][]sampler.Sample, len(p.Layout))
	for i, c := range counts {
		if c > 0 {
			byLayout[i] = make([]sampler.Sample, 0, c)
		}
	}
	for _, smp := range p.Samples {
		if smp.Layout >= 0 && int(smp.Layout) < len(byLayout) {
			byLayout[smp.Layout] = append(byLayout[smp.Layout], smp)
		}
	}

	out := make([]VarCounts, len(order))
	for i, key := range order {
		li := first[key]
		out[i] = countVar(p.Layout[li], byLayout[li])
	}
	return out
}

// countVar tick-collapses one variable's samples — one observation per
// alarm tick, the first sample winning, since virtual unwinding can record
// a variable several times within one alarm — and counts the dimensions.
func countVar(l sampler.LayoutEntry, samples []sampler.Sample) VarCounts {
	v := VarCounts{Func: l.Func, Name: l.Name, IsPointer: l.IsPointer, Samples: samples}
	series := TickSeries(samples)
	if len(series) == 0 {
		return v
	}
	v.Count = int64(len(series))
	for _, x := range series {
		v.Sum += x
	}
	runs := stats.RunLengths(series)
	v.NumRuns = int64(len(runs))
	_, v.MaxRun, _ = stats.MinMax(runs)
	v.Deltas = stats.Tally(stats.ChangeDeltas(series))
	v.Runs = stats.Tally(runs)
	v.Values = stats.Tally(series) // sorts series in place; keep last

	pcs := make([]int32, len(samples))
	for i, smp := range samples {
		pcs[i] = smp.PC
	}
	slices.Sort(pcs)
	v.PCs = slices.Clone(slices.Compact(pcs)) // sketches keep PCs: drop the spare capacity
	return v
}

// TickSeries collapses a variable's samples (recording order) to its value
// series, one observation per alarm tick.
func TickSeries(samples []sampler.Sample) []float64 {
	var out []float64
	lastTick := int64(-1)
	for _, smp := range samples {
		if smp.Tick == lastTick {
			continue
		}
		lastTick = smp.Tick
		out = append(out, float64(smp.Value))
	}
	return out
}

// Counts returns the summary in the analysis core's counted form; its
// multisets are the bucketed histograms.
func (v *VarSummary) Counts() VarCounts {
	return VarCounts{
		Func: v.Func, Name: v.Name, IsPointer: v.IsPointer,
		Count: v.Count, NumRuns: v.NumRuns, MaxRun: v.MaxRun, Sum: v.Sum,
		Values: v.Values.Multiset(),
		Deltas: v.Deltas.Multiset(),
		Runs:   v.Runs.Multiset(),
		PCs:    v.PCs,
	}
}

// Var returns the summary for a variable key ("func\x00name"), or nil.
func (s *Profile) Var(key string) *VarSummary {
	i := sort.Search(len(s.Vars), func(i int) bool { return s.Vars[i].Key() >= key })
	if i < len(s.Vars) && s.Vars[i].Key() == key {
		return &s.Vars[i]
	}
	return nil
}

// Clone returns a deep copy of the sketch.
func (s *Profile) Clone() *Profile {
	out := &Profile{
		BlobID:     s.BlobID,
		Interval:   s.Interval,
		TotalTicks: s.TotalTicks,
		NumAlarms:  s.NumAlarms,
		HistLen:    s.HistLen,
		Hist:       make(map[int32]int64, len(s.Hist)),
		UnitsByPC:  make(map[int32]int64, len(s.UnitsByPC)),
		Vars:       make([]VarSummary, len(s.Vars)),
	}
	for pc, n := range s.Hist {
		out.Hist[pc] = n
	}
	for pc, n := range s.UnitsByPC {
		out.UnitsByPC[pc] = n
	}
	for i := range s.Vars {
		v := s.Vars[i]
		v.Values = v.Values.Clone()
		v.Deltas = v.Deltas.Clone()
		v.Runs = v.Runs.Clone()
		v.PCs = append([]int32(nil), v.PCs...)
		out.Vars[i] = v
	}
	return out
}

// Merge folds other into s: counts sum and variable lists merge-join in key
// order, so the operation is associative, commutative (up to the symmetric
// BlobID/Interval carry-over below) and deterministic. Merging models
// summing tick-disjoint executions (shards of one corpus); both sketches
// should share Interval — the receiver's is kept, or adopted when the
// receiver is empty.
func (s *Profile) Merge(other *Profile) {
	if s.Interval == 0 {
		s.Interval = other.Interval
	}
	s.BlobID = "" // merged sketches no longer address a single blob
	s.TotalTicks += other.TotalTicks
	s.NumAlarms += other.NumAlarms
	if other.HistLen > s.HistLen {
		s.HistLen = other.HistLen
	}
	if s.Hist == nil {
		s.Hist = make(map[int32]int64, len(other.Hist))
	}
	for pc, n := range other.Hist {
		s.Hist[pc] += n
	}
	if s.UnitsByPC == nil {
		s.UnitsByPC = make(map[int32]int64, len(other.UnitsByPC))
	}
	for pc, n := range other.UnitsByPC {
		s.UnitsByPC[pc] += n
	}

	merged := make([]VarSummary, 0, len(s.Vars)+len(other.Vars))
	i, j := 0, 0
	for i < len(s.Vars) && j < len(other.Vars) {
		a, b := &s.Vars[i], &other.Vars[j]
		ak, bk := a.Key(), b.Key()
		switch {
		case ak < bk:
			merged = append(merged, *a)
			i++
		case ak > bk:
			merged = append(merged, cloneVar(b))
			j++
		default:
			// VarSummary.Merge builds fresh histograms and PC slices, so
			// the copied struct never aliases other's maps.
			v := *a
			v.Merge(b)
			merged = append(merged, v)
			i++
			j++
		}
	}
	merged = append(merged, s.Vars[i:]...)
	for ; j < len(other.Vars); j++ {
		merged = append(merged, cloneVar(&other.Vars[j]))
	}
	s.Vars = merged
}

func cloneVar(v *VarSummary) VarSummary {
	out := *v
	out.Values = v.Values.Clone()
	out.Deltas = v.Deltas.Clone()
	out.Runs = v.Runs.Clone()
	out.PCs = append([]int32(nil), v.PCs...)
	return out
}

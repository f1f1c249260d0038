package sketch_test

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"vprof/internal/sketch"
	"vprof/internal/stats"
)

func TestBucketIdentityRange(t *testing.T) {
	for _, v := range []float64{0, 1, -1, 7, 42, -99, 1 << 20, -(1 << 20), 1048575} {
		if got := sketch.Bucket(v); got != v {
			t.Errorf("Bucket(%v) = %v, want identity", v, got)
		}
	}
}

func TestBucketIdempotentAndMonotonic(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	vals := []float64{1 << 21, -(1 << 21), 3.5e7, 1e12, -2.75e9, 1234567.89}
	for i := 0; i < 2000; i++ {
		vals = append(vals, (rng.Float64()-0.5)*math.Ldexp(1, rng.Intn(60)))
	}
	for _, v := range vals {
		b := sketch.Bucket(v)
		if bb := sketch.Bucket(b); bb != b {
			t.Fatalf("Bucket not idempotent: %v -> %v -> %v", v, b, bb)
		}
		// The representative stays within one sub-bucket (1/16 octave) of
		// the value.
		if v != 0 && math.Abs(b-v)/math.Abs(v) > 1.0/16 {
			t.Fatalf("Bucket(%v) = %v: relative error %v", v, b, math.Abs(b-v)/math.Abs(v))
		}
		if math.Signbit(b) != math.Signbit(v) && b != 0 {
			t.Fatalf("Bucket(%v) = %v: sign flipped", v, b)
		}
	}
	// Monotonic: bucketing preserves (non-strict) order.
	a, b := rng.Float64()*1e9, 0.0
	for i := 0; i < 2000; i++ {
		b = a + rng.Float64()*1e8
		if sketch.Bucket(a) > sketch.Bucket(b) {
			t.Fatalf("Bucket not monotonic: %v < %v but %v > %v", a, b, sketch.Bucket(a), sketch.Bucket(b))
		}
		a = b
	}
}

func TestBucketSpecials(t *testing.T) {
	if !math.IsNaN(sketch.Bucket(math.NaN())) {
		t.Error("NaN should pass through")
	}
	if !math.IsInf(sketch.Bucket(math.Inf(1)), 1) || !math.IsInf(sketch.Bucket(math.Inf(-1)), -1) {
		t.Error("Inf should pass through")
	}
}

func randSeries(rng *rand.Rand, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		// Small integral values (the exact range) with occasional runs,
		// like real tick-collapsed series.
		if i > 0 && rng.Intn(3) == 0 {
			out[i] = out[i-1]
		} else {
			out[i] = float64(rng.Intn(2000) - 300)
		}
	}
	return out
}

// TestHistMergeEqualsBatch: merging per-shard histograms equals bucketing
// the concatenated raw series — the core mergeability property.
func TestHistMergeEqualsBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 200; i++ {
		a := randSeries(rng, rng.Intn(40))
		b := randSeries(rng, rng.Intn(40))
		merged := sketch.MergeHist(sketch.HistOf(a), sketch.HistOf(b))
		batch := sketch.HistOf(append(append([]float64(nil), a...), b...))
		if !reflect.DeepEqual(merged, batch) {
			t.Fatalf("merge != batch:\nmerge %v\nbatch %v", merged, batch)
		}
	}
}

func TestHistMergeAssociativeCommutative(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for i := 0; i < 200; i++ {
		a := sketch.HistOf(randSeries(rng, rng.Intn(30)))
		b := sketch.HistOf(randSeries(rng, rng.Intn(30)))
		c := sketch.HistOf(randSeries(rng, rng.Intn(30)))
		ab_c := sketch.MergeHist(sketch.MergeHist(a, b), c)
		a_bc := sketch.MergeHist(a, sketch.MergeHist(b, c))
		if !reflect.DeepEqual(ab_c, a_bc) {
			t.Fatalf("merge not associative")
		}
		if !reflect.DeepEqual(sketch.MergeHist(a, b), sketch.MergeHist(b, a)) {
			t.Fatalf("merge not commutative")
		}
	}
}

// TestHistMultisetSortedAndComplete: Multiset lists every bucket once,
// ascending, with its count; in the exact range it is the counted form of
// the sorted series.
func TestHistMultisetSortedAndComplete(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	for i := 0; i < 100; i++ {
		s := randSeries(rng, rng.Intn(50))
		h := sketch.HistOf(s)
		m := h.Multiset()
		if m.Total() != h.Total() || int(m.Total()) != len(s) || len(m) != len(h) {
			t.Fatalf("Multiset lost observations: %d vs %d", m.Total(), len(s))
		}
		for j, c := range m {
			if h[c.V] != c.N || (j > 0 && !(m[j-1].V < c.V)) {
				t.Fatalf("Multiset not the ascending bucket counts: %v", m)
			}
		}
		want := append([]float64(nil), s...)
		for j := range want {
			want[j] = sketch.Bucket(want[j])
		}
		if !reflect.DeepEqual(m, stats.Tally(want)) {
			t.Fatalf("Multiset != counted sorted bucketed series")
		}
	}
	if m := sketch.Hist(nil).Multiset(); m != nil {
		t.Fatalf("empty histogram: %v", m)
	}
}

func mkVar(rng *rand.Rand, fn, name string, n int) sketch.VarSummary {
	series := randSeries(rng, n)
	vs := sketch.VarSummary{Func: fn, Name: name, Count: int64(len(series))}
	if len(series) > 0 {
		vs.Min, vs.Max, _ = stats.MinMax(series)
		for _, v := range series {
			vs.Sum += v
		}
	}
	vs.Values = sketch.HistOf(series)
	vs.Deltas = sketch.HistOf(stats.ChangeDeltas(series))
	runs := stats.RunLengths(series)
	vs.Runs = sketch.HistOf(runs)
	vs.NumRuns = int64(len(runs))
	_, vs.MaxRun, _ = stats.MinMax(runs)
	for i := 0; i < rng.Intn(5); i++ {
		vs.PCs = append(vs.PCs, int32(i*3+rng.Intn(2)))
	}
	dedupPCs(&vs)
	return vs
}

func dedupPCs(vs *sketch.VarSummary) {
	seen := map[int32]bool{}
	var out []int32
	for _, pc := range vs.PCs {
		if !seen[pc] {
			seen[pc] = true
			out = append(out, pc)
		}
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	vs.PCs = out
}

func mkProfile(rng *rand.Rand, nvars int) *sketch.Profile {
	p := &sketch.Profile{
		Interval:   37,
		TotalTicks: int64(rng.Intn(100000)),
		NumAlarms:  int64(rng.Intn(1000)),
		HistLen:    256,
		Hist:       map[int32]int64{},
		UnitsByPC:  map[int32]int64{},
	}
	for i := 0; i < rng.Intn(20); i++ {
		p.Hist[int32(rng.Intn(256))] += int64(rng.Intn(50) + 1)
	}
	for i := 0; i < rng.Intn(20); i++ {
		p.UnitsByPC[int32(rng.Intn(256))] += int64(rng.Intn(50) + 1)
	}
	names := []string{"alpha", "beta", "gamma", "delta", "epsilon"}
	funcs := []string{"f", "g", "h"}
	seen := map[string]bool{}
	for i := 0; i < nvars; i++ {
		fn := funcs[rng.Intn(len(funcs))]
		nm := names[rng.Intn(len(names))]
		if seen[fn+"\x00"+nm] {
			continue
		}
		seen[fn+"\x00"+nm] = true
		p.Vars = append(p.Vars, mkVar(rng, fn, nm, rng.Intn(30)))
	}
	sortVars(p)
	return p
}

func sortVars(p *sketch.Profile) {
	for i := 1; i < len(p.Vars); i++ {
		for j := i; j > 0 && p.Vars[j].Key() < p.Vars[j-1].Key(); j-- {
			p.Vars[j], p.Vars[j-1] = p.Vars[j-1], p.Vars[j]
		}
	}
}

func mergeOf(ps ...*sketch.Profile) *sketch.Profile {
	out := ps[0].Clone()
	for _, p := range ps[1:] {
		out.Merge(p)
	}
	return out
}

// TestProfileMergeAssociativeCommutative: (a+b)+c == a+(b+c) and a+b == b+a
// for full profile sketches, including the index-ordered variable lists.
func TestProfileMergeAssociativeCommutative(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	for i := 0; i < 50; i++ {
		a, b, c := mkProfile(rng, 6), mkProfile(rng, 6), mkProfile(rng, 6)
		left := mergeOf(mergeOf(a, b), c)
		right := mergeOf(a, mergeOf(b, c))
		if !reflect.DeepEqual(left, right) {
			t.Fatalf("Profile.Merge not associative:\n%+v\n%+v", left, right)
		}
		ab, ba := mergeOf(a, b), mergeOf(b, a)
		if !reflect.DeepEqual(ab, ba) {
			t.Fatalf("Profile.Merge not commutative")
		}
		// Inputs must not be mutated by merging.
		if !reflect.DeepEqual(a, mkProfileClone(a)) {
			t.Fatal("Merge mutated an input via aliasing")
		}
	}
}

func mkProfileClone(p *sketch.Profile) *sketch.Profile { return p.Clone() }

func TestVarSummaryMergeMoments(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	for i := 0; i < 100; i++ {
		sa := randSeries(rng, rng.Intn(20))
		sb := randSeries(rng, rng.Intn(20))
		a := summaryOf(sa)
		b := summaryOf(sb)
		a.Merge(&b)
		both := append(append([]float64(nil), sa...), sb...)
		if a.Count != int64(len(both)) {
			t.Fatalf("Count %d != %d", a.Count, len(both))
		}
		if len(both) > 0 {
			lo, hi, _ := stats.MinMax(both)
			var sum float64
			for _, v := range both {
				sum += v
			}
			if a.Min != lo || a.Max != hi || a.Sum != sum {
				t.Fatalf("moments: got (%v,%v,%v) want (%v,%v,%v)", a.Min, a.Max, a.Sum, lo, hi, sum)
			}
		}
		if !reflect.DeepEqual(a.Values, sketch.HistOf(both)) {
			t.Fatal("merged Values != batch histogram")
		}
	}
}

func summaryOf(series []float64) sketch.VarSummary {
	vs := sketch.VarSummary{Func: "f", Name: "x", Count: int64(len(series))}
	if len(series) > 0 {
		vs.Min, vs.Max, _ = stats.MinMax(series)
		for _, v := range series {
			vs.Sum += v
		}
	}
	vs.Values = sketch.HistOf(series)
	vs.Deltas = sketch.HistOf(stats.ChangeDeltas(series))
	runs := stats.RunLengths(series)
	vs.Runs = sketch.HistOf(runs)
	vs.NumRuns = int64(len(runs))
	_, vs.MaxRun, _ = stats.MinMax(runs)
	return vs
}

func TestProfileVarLookup(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	p := mkProfile(rng, 8)
	for i := range p.Vars {
		v := p.Var(p.Vars[i].Key())
		if v != &p.Vars[i] {
			t.Fatalf("Var(%q) lookup failed", p.Vars[i].Key())
		}
	}
	if p.Var("zzz\x00nope") != nil {
		t.Fatal("Var of unknown key should be nil")
	}
}

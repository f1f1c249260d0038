package analysis_test

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"vprof/internal/analysis"
	"vprof/internal/sampler"
	"vprof/internal/sketch"
	"vprof/internal/stats"
)

func sketchesOf(profiles []*sampler.Profile) []*sketch.Profile {
	out := make([]*sketch.Profile, len(profiles))
	for i, p := range profiles {
		out[i] = sketch.FromProfile(p)
	}
	return out
}

// TestSketchAnalysisMatchesFull is the determinism golden for the sketch
// path: on the reproduced-issue workloads every sampled value is a small
// integer, so the sketch buckets are exact and AnalyzeSketchesContext must
// reproduce AnalyzeContext bit for bit — same ranking, same calibrated
// costs, same per-variable verdicts — with only the PC-trail-derived fields
// (AbnormalPCs, Blocks) absent.
func TestSketchAnalysisMatchesFull(t *testing.T) {
	tb := buildBench(t, recoverySrc)
	normal := tb.profileRuns(t, 3, 40)
	buggy := tb.profileRuns(t, 3, 90)
	p := analysis.DefaultParams()

	full, err := analysis.Analyze(analysis.Input{
		Debug:  tb.prog.Debug,
		Schema: tb.sch,
		Normal: normal,
		Buggy:  buggy,
	}, p)
	if err != nil {
		t.Fatal(err)
	}

	nsk, bsk := sketchesOf(normal), sketchesOf(buggy)
	sk, err := analysis.AnalyzeSketches(analysis.SketchInput{
		Debug:  tb.prog.Debug,
		Schema: tb.sch,
		Normal: nsk[0],
		Corpus: analysis.CorpusOfSketches(nsk, tb.prog.Debug),
		Buggy:  bsk,
	}, p)
	if err != nil {
		t.Fatal(err)
	}

	if len(sk.Funcs) != len(full.Funcs) {
		t.Fatalf("sketch report has %d funcs, full has %d", len(sk.Funcs), len(full.Funcs))
	}
	for i := range full.Funcs {
		f, s := &full.Funcs[i], &sk.Funcs[i]
		if f.Name != s.Name || f.Rank != s.Rank {
			t.Fatalf("rank %d: full %q vs sketch %q", i+1, f.Name, s.Name)
		}
		if f.PCCost != s.PCCost || f.VarCost != s.VarCost || f.RawCost != s.RawCost {
			t.Errorf("%s: costs differ: full (%v,%v,%v) sketch (%v,%v,%v)",
				f.Name, f.PCCost, f.VarCost, f.RawCost, s.PCCost, s.VarCost, s.RawCost)
		}
		if f.Discount != s.Discount || f.DiscountSource != s.DiscountSource || f.Calibrated != s.Calibrated {
			t.Errorf("%s: discount differs: full (%v,%s,%v) sketch (%v,%s,%v)",
				f.Name, f.Discount, f.DiscountSource, f.Calibrated, s.Discount, s.DiscountSource, s.Calibrated)
		}
		if f.Pattern != s.Pattern {
			t.Errorf("%s: pattern %v vs %v", f.Name, f.Pattern, s.Pattern)
		}
		switch {
		case (f.TopVariable == nil) != (s.TopVariable == nil):
			t.Errorf("%s: TopVariable presence differs", f.Name)
		case f.TopVariable != nil:
			ft, st := f.TopVariable, s.TopVariable
			if ft.Func != st.Func || ft.Name != st.Name || ft.Discount != st.Discount || ft.Dimension != st.Dimension {
				t.Errorf("%s: top variable differs: %s.%s(%v,%v) vs %s.%s(%v,%v)", f.Name,
					ft.Func, ft.Name, ft.Discount, ft.Dimension, st.Func, st.Name, st.Discount, st.Dimension)
			}
		}
	}

	if len(sk.Variables) != len(full.Variables) {
		t.Fatalf("sketch analyzed %d variables, full %d", len(sk.Variables), len(full.Variables))
	}
	for key, fv := range full.Variables {
		sv := sk.Variables[key]
		if sv == nil {
			t.Fatalf("variable %q missing from sketch report", key)
		}
		if fv.Discount != sv.Discount || fv.Dimension != sv.Dimension || fv.Tested != sv.Tested {
			t.Errorf("%q: verdict differs: full (%v,%v,%v) sketch (%v,%v,%v)", key,
				fv.Discount, fv.Dimension, fv.Tested, sv.Discount, sv.Dimension, sv.Tested)
		}
		if fv.NormalCount != sv.NormalCount || fv.BuggyCount != sv.BuggyCount {
			t.Errorf("%q: counts differ: (%d,%d) vs (%d,%d)", key,
				fv.NormalCount, fv.BuggyCount, sv.NormalCount, sv.BuggyCount)
		}
		if fv.MaxRunNormal != sv.MaxRunNormal || fv.MaxRunBuggy != sv.MaxRunBuggy || fv.RunsBuggy != sv.RunsBuggy {
			t.Errorf("%q: run stats differ: (%v,%v,%d) vs (%v,%v,%d)", key,
				fv.MaxRunNormal, fv.MaxRunBuggy, fv.RunsBuggy, sv.MaxRunNormal, sv.MaxRunBuggy, sv.RunsBuggy)
		}
		if fv.Tags != sv.Tags || fv.IsPointer != sv.IsPointer {
			t.Errorf("%q: tags/pointer differ", key)
		}
	}
}

// TestCorpusIncrementalMatchesBatch: folding normal runs into a corpus one
// at a time — or shard-wise with Merge — yields the same hist-discounter
// verdicts as the batch AnalyzeContext computation.
func TestCorpusIncrementalMatchesBatch(t *testing.T) {
	tb := buildBench(t, recoverySrc)
	normal := tb.profileRuns(t, 5, 40)
	nsk := sketchesOf(normal)

	batch := analysis.CorpusOfSketches(nsk, tb.prog.Debug)

	inc := analysis.NewCorpus()
	for _, s := range nsk {
		inc.AddSketch(s, tb.prog.Debug)
	}
	if !reflect.DeepEqual(batch, inc) {
		t.Fatalf("incremental corpus != batch:\n%+v\n%+v", batch, inc)
	}

	shardA := analysis.CorpusOfSketches(nsk[:2], tb.prog.Debug)
	shardB := analysis.CorpusOfSketches(nsk[2:], tb.prog.Debug)
	shardA.Merge(shardB)
	if !reflect.DeepEqual(batch, shardA) {
		t.Fatalf("merged shard corpora != batch:\n%+v\n%+v", batch, shardA)
	}

	clone := batch.Clone()
	clone.AddRanks(map[string]int{"bogus": 1})
	if reflect.DeepEqual(batch, clone) {
		t.Fatal("Clone aliases the original")
	}
}

// TestSketchFoldPreservesUnits: the sketch's per-PC unit counts reproduce
// the per-function count of distinct (alarm, PC) value-sample units on a
// real profile, so variable-based raw costs are identical in sketch mode.
func TestSketchFoldPreservesUnits(t *testing.T) {
	tb := buildBench(t, recoverySrc)
	prof := tb.profileRuns(t, 1, 90)[0]
	sk := sketch.FromProfile(prof)

	type unit struct {
		tick int64
		pc   int32
	}
	seen := map[unit]bool{}
	want := map[string]int64{}
	for _, s := range prof.Samples {
		u := unit{s.Tick, s.PC}
		if seen[u] {
			continue
		}
		seen[u] = true
		if fn := tb.prog.Debug.FuncAt(int(s.PC)); fn != nil {
			want[fn.Name]++
		}
	}
	got := map[string]int64{}
	for pc, n := range sk.UnitsByPC {
		if fn := tb.prog.Debug.FuncAt(int(pc)); fn != nil {
			got[fn.Name] += n
		}
	}
	for fn, w := range want {
		if got[fn] != w {
			t.Errorf("%s: sketch units %d, profile units %d", fn, got[fn], w)
		}
	}
	for fn, g := range got {
		if want[fn] == 0 && g != 0 {
			t.Errorf("%s: sketch has %d units, profile none", fn, g)
		}
	}
}

// TestSketchRanksMatchProfile: the per-run cost ranking derived from a
// sketch's sparse PC histogram matches the full profile's.
func TestSketchRanksMatchProfile(t *testing.T) {
	tb := buildBench(t, recoverySrc)
	for _, inputs := range [][]int64{{40}, {90}} {
		prof := tb.profileRuns(t, 1, inputs...)[0]
		sk := sketch.FromProfile(prof)
		c := analysis.NewCorpus()
		c.AddSketch(sk, tb.prog.Debug)

		full, err := analysis.Analyze(analysis.Input{
			Debug:  tb.prog.Debug,
			Schema: tb.sch,
			Normal: []*sampler.Profile{prof},
			Buggy:  []*sampler.Profile{prof},
		}, analysis.DefaultParams())
		if err != nil {
			t.Fatal(err)
		}
		ranks := stats.Ranks(pcCostOf(full))
		for f, r := range ranks {
			lst := c.Ranks[f]
			if len(lst) != 1 || lst[0] != r {
				t.Errorf("inputs %v: %s rank %v in corpus, want [%d]", inputs, f, lst, r)
			}
		}
	}
}

// pcCostOf recovers the PC-cost map from a report's rows.
func pcCostOf(rep *analysis.Report) map[string]float64 {
	out := map[string]float64{}
	for i := range rep.Funcs {
		if rep.Funcs[i].PCCost > 0 {
			out[rep.Funcs[i].Name] = rep.Funcs[i].PCCost
		}
	}
	return out
}

// TestAnalyzeSketchesValidation mirrors AnalyzeContext's input checks.
func TestAnalyzeSketchesValidation(t *testing.T) {
	tb := buildBench(t, recoverySrc)
	sk := sketch.FromProfile(tb.profileRuns(t, 1, 40)[0])
	if _, err := analysis.AnalyzeSketches(analysis.SketchInput{
		Debug: tb.prog.Debug, Schema: tb.sch, Normal: sk,
	}, analysis.DefaultParams()); err != analysis.ErrNoProfiles {
		t.Errorf("no buggy sketches: err = %v, want ErrNoProfiles", err)
	}
	if _, err := analysis.AnalyzeSketches(analysis.SketchInput{
		Debug: tb.prog.Debug, Schema: tb.sch, Buggy: []*sketch.Profile{sk},
	}, analysis.DefaultParams()); err != analysis.ErrNoProfiles {
		t.Errorf("no normal sketch: err = %v, want ErrNoProfiles", err)
	}
}

// TestSketchAnalysisDeterministicAcrossWorkers: the sketch path inherits
// the full path's worker-count independence.
func TestSketchAnalysisDeterministicAcrossWorkers(t *testing.T) {
	tb := buildBench(t, recoverySrc)
	nsk := sketchesOf(tb.profileRuns(t, 3, 40))
	bsk := sketchesOf(tb.profileRuns(t, 3, 90))
	in := analysis.SketchInput{
		Debug:  tb.prog.Debug,
		Schema: tb.sch,
		Normal: nsk[0],
		Corpus: analysis.CorpusOfSketches(nsk, tb.prog.Debug),
		Buggy:  bsk,
	}
	var base string
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 4; trial++ {
		p := analysis.DefaultParams()
		p.Workers = 1 + rng.Intn(8)
		rep, err := analysis.AnalyzeSketches(in, p)
		if err != nil {
			t.Fatal(err)
		}
		r := rep.Render(0)
		if trial == 0 {
			base = r
		} else if r != base {
			t.Fatalf("workers=%d renders differently:\n%s\nvs\n%s", p.Workers, r, base)
		}
	}
}

// countedPair builds a synthetic sketch pair over recovery's PC histograms:
// 24 variables whose three dimension histograms each hold 64 observations
// times scale, spread over up to 8 buckets.
func countedPair(tb *testBench, t *testing.T, scale int64) analysis.SketchInput {
	sk := sketchesOf([]*sampler.Profile{tb.profileRuns(t, 1, 40)[0], tb.profileRuns(t, 1, 90)[0]})
	rng := rand.New(rand.NewSource(71))
	hist := func(shift float64) sketch.Hist {
		h := sketch.Hist{}
		left := int64(64)
		for left > 0 {
			c := 1 + rng.Int63n(left)
			if len(h) == 7 {
				c = left
			}
			h[float64(rng.Intn(8))+shift] += c * scale
			left -= c
		}
		return h
	}
	for side, s := range sk {
		s.Vars = nil
		for i := 0; i < 24; i++ {
			v := sketch.VarSummary{Func: "main", Name: fmt.Sprintf("v%02d", i)}
			v.Values, v.Deltas, v.Runs = hist(float64(side*i%3)), hist(0), hist(1)
			v.Count, v.NumRuns = v.Values.Total(), v.Runs.Total()
			for k := range v.Runs {
				v.MaxRun = max(v.MaxRun, k)
			}
			s.Vars = append(s.Vars, v)
		}
	}
	return analysis.SketchInput{Debug: tb.prog.Debug, Schema: tb.sch, Normal: sk[0], Buggy: sk[1:]}
}

// TestSketchAnalysisAllocIndependentOfCounts: sketch-mode analysis memory
// follows the number of buckets, not the observation counts. Scaling every
// bucket count by 64 (up to 4096 observations per histogram) must not grow
// the bytes AnalyzeSketches allocates.
func TestSketchAnalysisAllocIndependentOfCounts(t *testing.T) {
	tb := buildBench(t, recoverySrc)
	p := analysis.DefaultParams()
	p.Workers = 1
	alloc := func(in analysis.SketchInput) uint64 {
		if _, err := analysis.AnalyzeSketches(in, p); err != nil { // warm pools and memos
			t.Fatal(err)
		}
		best := uint64(math.MaxUint64)
		for i := 0; i < 3; i++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			if _, err := analysis.AnalyzeSketches(in, p); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			best = min(best, after.TotalAlloc-before.TotalAlloc)
		}
		return best
	}
	base := alloc(countedPair(tb, t, 1))
	scaled := alloc(countedPair(tb, t, 64))
	t.Logf("allocated %d B at 64 observations per histogram, %d B at 4096", base, scaled)
	if scaled > base+base/8 {
		t.Fatalf("scaling bucket counts by 64 grew allocation from %d B to %d B", base, scaled)
	}
}

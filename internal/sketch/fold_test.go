package sketch_test

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"vprof/internal/sampler"
	"vprof/internal/sketch"
	"vprof/internal/stats"
)

// randSampled builds a decoded-profile stand-in: a layout with a duplicate
// key, and samples from two "processes" whose ticks restart, several
// samples per tick (virtual unwinding), in recording order.
func randSampled(rng *rand.Rand) *sampler.Profile {
	p := &sampler.Profile{
		Interval: 37,
		Hist:     make([]int64, 64),
		Layout: []sampler.LayoutEntry{
			{Func: "f", Name: "x"},
			{Func: "#global", Name: "g"},
			{Func: "f", Name: "p", IsPointer: true},
			{Func: "f", Name: "x"}, // duplicate: samples here are dropped
			{Func: "h", Name: "never"},
		},
	}
	for pc := range p.Hist {
		p.Hist[pc] = int64(rng.Intn(3))
	}
	for proc := 0; proc < 2; proc++ {
		tick := int64(0)
		for a := 0; a < 40+rng.Intn(40); a++ {
			tick += int64(1 + rng.Intn(50))
			for k := 0; k < 1+rng.Intn(4); k++ {
				p.Samples = append(p.Samples, sampler.Sample{
					Layout: int32(rng.Intn(4)),
					PC:     int32(rng.Intn(64)),
					Value:  int64(rng.Intn(6)) * int64(1+rng.Intn(2)) << uint(rng.Intn(24)),
					Tick:   tick,
				})
			}
		}
	}
	return p
}

// TestCountVarsMatchesSeries checks CountVars against the series-based
// definition: group by first layout index, collapse to one observation per
// tick, then take values, change deltas and run lengths.
func TestCountVarsMatchesSeries(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	for trial := 0; trial < 50; trial++ {
		p := randSampled(rng)
		got := sketch.CountVars(p)
		if len(got) != 4 {
			t.Fatalf("%d variables, want 4 distinct keys", len(got))
		}
		for i := 1; i < len(got); i++ {
			if got[i-1].Key() >= got[i].Key() {
				t.Fatalf("variables not ascending by key")
			}
		}
		first := map[string]int32{}
		for i, l := range p.Layout {
			if _, ok := first[l.Func+"\x00"+l.Name]; !ok {
				first[l.Func+"\x00"+l.Name] = int32(i)
			}
		}
		for _, v := range got {
			li := first[v.Key()]
			var samples []sampler.Sample
			var series []float64
			last := int64(-1)
			pcs := map[int32]bool{}
			for _, s := range p.Samples {
				if s.Layout != li {
					continue
				}
				samples = append(samples, s)
				pcs[s.PC] = true
				if s.Tick != last {
					last = s.Tick
					series = append(series, float64(s.Value))
				}
			}
			cp := func(s []float64) stats.Multiset { return stats.Tally(append([]float64(nil), s...)) }
			runs := stats.RunLengths(series)
			var sum float64
			for _, x := range series {
				sum += x
			}
			var wantPCs []int32
			for pc := range pcs {
				wantPCs = append(wantPCs, pc)
			}
			sort.Slice(wantPCs, func(i, j int) bool { return wantPCs[i] < wantPCs[j] })
			_, maxRun, _ := stats.MinMax(runs)
			want := sketch.VarCounts{
				Func: v.Func, Name: v.Name, IsPointer: v.IsPointer, Samples: samples,
				Count: int64(len(series)), NumRuns: int64(len(runs)), MaxRun: maxRun,
				Sum:    sum,
				Values: cp(series), Deltas: cp(stats.ChangeDeltas(series)), Runs: cp(runs),
				PCs: wantPCs,
			}
			if !reflect.DeepEqual(v, want) {
				t.Fatalf("%q:\n got %+v\nwant %+v", v.Key(), v, want)
			}
		}
	}
}

// TestUnitsByPCMatchesMapOracle: the sorting unit count equals a map-based
// distinct (tick, pc) count, including ticks that repeat across processes.
func TestUnitsByPCMatchesMapOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	for trial := 0; trial < 50; trial++ {
		p := randSampled(rng)
		type unit struct {
			tick int64
			pc   int32
		}
		seen := map[unit]bool{}
		want := map[int32]int64{}
		for _, s := range p.Samples {
			if u := (unit{s.Tick, s.PC}); !seen[u] {
				seen[u] = true
				want[s.PC]++
			}
		}
		if got := sketch.UnitsByPC(p.Samples); !reflect.DeepEqual(got, want) {
			t.Fatalf("UnitsByPC = %v, want %v", got, want)
		}
	}
}

// TestFromProfileBucketsCounts: a sketch's histograms are its exact
// counts bucketed, and Counts reads them back as the bucketed multisets.
func TestFromProfileBucketsCounts(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	p := randSampled(rng)
	exact := sketch.CountVars(p)
	sk := sketch.FromProfile(p)
	if len(sk.Vars) != len(exact) {
		t.Fatalf("%d sketch vars, %d counted", len(sk.Vars), len(exact))
	}
	bucketed := func(m stats.Multiset) stats.Multiset {
		var s []float64
		for _, c := range m {
			for i := int64(0); i < c.N; i++ {
				s = append(s, sketch.Bucket(c.V))
			}
		}
		return stats.Tally(s)
	}
	for i := range exact {
		e, c := &exact[i], sk.Vars[i].Counts()
		if c.Key() != e.Key() || c.Count != e.Count || c.NumRuns != e.NumRuns || c.MaxRun != e.MaxRun ||
			c.Sum != e.Sum || !reflect.DeepEqual(c.PCs, e.PCs) {
			t.Fatalf("%q: summary fields differ from the exact counts", e.Key())
		}
		if c.Samples != nil {
			t.Fatalf("%q: sketch counts carry samples", e.Key())
		}
		if n := len(e.Values); n > 0 && (sk.Vars[i].Min != e.Values[0].V || sk.Vars[i].Max != e.Values[n-1].V) {
			t.Fatalf("%q: sketch extrema %v..%v, observations %v", e.Key(), sk.Vars[i].Min, sk.Vars[i].Max, e.Values)
		}
		for d, pair := range [][2]stats.Multiset{{c.Values, e.Values}, {c.Deltas, e.Deltas}, {c.Runs, e.Runs}} {
			if !reflect.DeepEqual(pair[0], bucketed(pair[1])) {
				t.Fatalf("%q dim %d: %v is not %v bucketed", e.Key(), d, pair[0], pair[1])
			}
		}
	}
}

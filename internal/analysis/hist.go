package analysis

import (
	"context"
	"sort"

	"vprof/internal/debuginfo"
	"vprof/internal/parallel"
	"vprof/internal/sketch"
	"vprof/internal/stats"
)

// pcCostApp returns the gprof-view PC cost per *application* function from a
// sparse PC histogram: library-function PCs are excluded (gprof records no
// samples outside the profiled executable, and vProf inherits this) as are
// synthetic functions.
func pcCostApp(hist map[int32]int64, interval int64, info *debuginfo.Info) map[string]float64 {
	out := map[string]float64{}
	for pc, n := range hist {
		if fn := appFuncAt(info, pc); fn != "" && n != 0 {
			out[fn] += float64(n * interval)
		}
	}
	return out
}

// varCostApp returns the variable-based execution cost per application
// function: its value-sample units (sketch.UnitsByPC) times the interval.
func varCostApp(units map[int32]int64, interval int64, info *debuginfo.Info) map[string]float64 {
	perFunc := map[string]int64{}
	for pc, n := range units {
		if fn := appFuncAt(info, pc); fn != "" {
			perFunc[fn] += n
		}
	}
	out := make(map[string]float64, len(perFunc))
	for fn, u := range perFunc {
		out[fn] = float64(u * interval)
	}
	return out
}

// appFuncAt names the application function containing pc, or "" for PCs
// outside any function, in a library function or in a synthetic one.
func appFuncAt(info *debuginfo.Info, pc int32) string {
	fn := info.FuncAt(int(pc))
	if fn == nil || fn.Library || isSynthetic(fn.Name) {
		return ""
	}
	return fn.Name
}

func isSynthetic(name string) bool {
	return len(name) >= 2 && name[0] == '_' && name[1] == '_'
}

// sparseHist is a decoded profile's dense PC histogram without its zeros.
func sparseHist(hist []int64) map[int32]int64 {
	out := make(map[int32]int64)
	for pc, n := range hist {
		if n != 0 {
			out[int32(pc)] = n
		}
	}
	return out
}

// costRanks ranks each run's application functions by PC cost.
func costRanks(ctx context.Context, workers int, runs []*run, info *debuginfo.Info) ([]map[string]int, error) {
	return parallel.MapCtx(ctx, workers, len(runs), func(i int) map[string]int {
		return stats.Ranks(pcCostApp(runs[i].hist, runs[i].interval, info))
	})
}

// Corpus summarizes a baseline (normal) run set for the hist-discounter:
// per function, the sorted multiset of its per-run cost ranks. Adding a run
// is O(functions); merging two corpora is associative and commutative, so a
// shard can answer with a partial corpus and the coordinator folds them.
type Corpus struct {
	// Runs is the number of runs folded in.
	Runs int
	// Ranks maps a function name to its dense cost rank in each run where
	// it appeared, ascending.
	Ranks map[string][]int
}

// NewCorpus returns an empty corpus.
func NewCorpus() *Corpus { return &Corpus{Ranks: map[string][]int{}} }

// AddSketch folds one run's sketch into the corpus.
func (c *Corpus) AddSketch(s *sketch.Profile, info *debuginfo.Info) {
	c.AddRanks(stats.Ranks(pcCostApp(s.Hist, s.Interval, info)))
}

// AddRanks folds one run's per-function cost ranking into the corpus.
func (c *Corpus) AddRanks(ranks map[string]int) {
	c.Runs++
	for f, r := range ranks {
		lst := c.Ranks[f]
		i := sort.SearchInts(lst, r)
		lst = append(lst, 0)
		copy(lst[i+1:], lst[i:])
		lst[i] = r
		c.Ranks[f] = lst
	}
}

// Merge folds other into c (associative and commutative).
func (c *Corpus) Merge(other *Corpus) {
	c.Runs += other.Runs
	for f, rs := range other.Ranks {
		merged := append(append([]int(nil), c.Ranks[f]...), rs...)
		sort.Ints(merged)
		c.Ranks[f] = merged
	}
}

// Clone returns a deep copy.
func (c *Corpus) Clone() *Corpus {
	out := &Corpus{Runs: c.Runs, Ranks: make(map[string][]int, len(c.Ranks))}
	for f, rs := range c.Ranks {
		out.Ranks[f] = append([]int(nil), rs...)
	}
	return out
}

// CorpusOfSketches builds a corpus from a baseline run set.
func CorpusOfSketches(sketches []*sketch.Profile, info *debuginfo.Info) *Corpus {
	c := NewCorpus()
	for _, s := range sketches {
		c.AddSketch(s, info)
	}
	return c
}

// histDiscounter computes discount ratios by cross-comparing a function's
// cost rank between every (buggy, normal) run pair (paper §5.1): r = h/c,
// where h counts comparisons in which the function ranks higher (more
// costly) in the normal run, and c counts comparisons in which the function
// appeared at all. The normal side is read from the corpus rank multisets:
// for a function ranked bRank in a buggy run, the normal runs that outrank
// it are the corpus entries < bRank (one binary search), and a function
// absent from one side pairs only with the runs of the other side that
// contain it. The ratios are exact integer counts, identical for any worker
// count.
func histDiscounter(ctx context.Context, p Params, corpus *Corpus, buggyRanks []map[string]int) (map[string]float64, error) {
	funcs := map[string]bool{}
	for f := range corpus.Ranks {
		funcs[f] = true
	}
	for _, r := range buggyRanks {
		for f := range r {
			funcs[f] = true
		}
	}
	names := make([]string, 0, len(funcs))
	for f := range funcs {
		names = append(names, f)
	}
	sort.Strings(names)

	type verdict struct {
		r  float64
		ok bool
	}
	verdicts, err := parallel.MapCtx(ctx, parallel.Workers(p.Workers), len(names), func(i int) verdict {
		f := names[i]
		nList := corpus.Ranks[f]
		h, c := 0, 0
		for _, br := range buggyRanks {
			if bRank, bOK := br[f]; bOK {
				// Every normal run pairs up; the ones where f ranked
				// more costly (smaller rank) add to h, absences add
				// nothing.
				c += corpus.Runs
				h += sort.SearchInts(nList, bRank)
			} else {
				// Only normal runs where f appeared pair up, each as
				// "costlier in normal".
				c += len(nList)
				h += len(nList)
			}
		}
		if c == 0 {
			return verdict{}
		}
		r := float64(h) / float64(c)
		if r < p.ValidDiscount {
			r = 0
		}
		return verdict{r, true}
	})
	if err != nil {
		return nil, err
	}

	out := make(map[string]float64, len(names))
	for i, f := range names {
		if verdicts[i].ok {
			out[f] = verdicts[i].r
		}
	}
	return out, nil
}

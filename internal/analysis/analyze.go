package analysis

import (
	"context"
	"errors"
	"sort"

	"vprof/internal/debuginfo"
	"vprof/internal/parallel"
	"vprof/internal/sampler"
	"vprof/internal/schema"
	"vprof/internal/sketch"
)

// ErrNoProfiles is returned when Analyze lacks a normal or buggy profile.
var ErrNoProfiles = errors.New("analysis: need at least one normal and one buggy profile")

// Analyze runs the complete post-profiling analysis and returns the
// calibrated function ranking with bug-pattern annotations.
func Analyze(in Input, p Params) (*Report, error) {
	return AnalyzeContext(context.Background(), in, p)
}

// AnalyzeContext is Analyze with cooperative cancellation: every fan-out
// stage (variable discounter, hist discounter, per-function attribution,
// classification) checks ctx and drains its workers once it is canceled,
// returning ctx.Err(). With a never-canceled context the computation — and
// its output, byte for byte — is identical to Analyze.
//
// Run 0 of each side is counted exactly (sketch.CountVars), the other runs
// only feed the hist-discounter, and the normal runs' cost rankings fold
// into a Corpus; the shared core then runs on that input.
func AnalyzeContext(ctx context.Context, in Input, p Params) (*Report, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if len(in.Normal) == 0 || len(in.Buggy) == 0 {
		return nil, ErrNoProfiles
	}
	workers := parallel.Workers(p.Workers)
	profiles := append(append([]*sampler.Profile(nil), in.Normal...), in.Buggy...)
	nNormal := len(in.Normal)
	runs, err := parallel.MapCtx(ctx, workers, len(profiles), func(i int) *run {
		pr := profiles[i]
		r := &run{interval: pr.Interval, hist: sparseHist(pr.Hist)}
		if i == 0 || i == nNormal {
			r.vars = sketch.CountVars(pr)
		}
		if i == nNormal && !p.DisableVarCost {
			r.units = sketch.UnitsByPC(pr.Samples)
		}
		return r
	})
	if err != nil {
		return nil, err
	}
	var corpus *Corpus
	if !p.DisableHistDiscounter {
		ranks, err := costRanks(ctx, workers, runs[:nNormal], in.Debug)
		if err != nil {
			return nil, err
		}
		corpus = NewCorpus()
		for _, r := range ranks {
			corpus.AddRanks(r)
		}
	}
	return diagnose(ctx, p, in.Debug, in.Schema, runs[0], runs[nNormal:], corpus)
}

// AnalyzeSketches is AnalyzeSketchesContext with a background context.
func AnalyzeSketches(in SketchInput, p Params) (*Report, error) {
	return AnalyzeSketchesContext(context.Background(), in, p)
}

// AnalyzeSketchesContext runs the calibrated diagnosis over sketches: the
// histograms are read as counted multisets, and the shared core runs on
// them. The report matches AnalyzeContext bit for bit where sketch buckets
// are exact, except that AbnormalPCs/Blocks localization is unavailable
// (sketches keep no ordered PC trail). Cancellation mirrors AnalyzeContext.
func AnalyzeSketchesContext(ctx context.Context, in SketchInput, p Params) (*Report, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if in.Normal == nil || len(in.Buggy) == 0 {
		return nil, ErrNoProfiles
	}
	corpus := in.Corpus
	if corpus == nil {
		corpus = CorpusOfSketches([]*sketch.Profile{in.Normal}, in.Debug)
	}
	buggy := make([]*run, len(in.Buggy))
	for i, s := range in.Buggy {
		buggy[i] = &run{interval: s.Interval, hist: s.Hist}
	}
	buggy[0] = sketchRun(in.Buggy[0])
	return diagnose(ctx, p, in.Debug, in.Schema, sketchRun(in.Normal), buggy, corpus)
}

// run is one profiled run in the form the analysis core reads: the sparse
// PC histogram, the value-sample units per PC, and each variable's exact
// counts, ascending by key. Runs past run 0 only need the histogram.
type run struct {
	interval int64
	hist     map[int32]int64
	units    map[int32]int64
	vars     []sketch.VarCounts
}

// sketchRun reads a sketch's histograms as counted multisets.
func sketchRun(s *sketch.Profile) *run {
	vars := make([]sketch.VarCounts, len(s.Vars))
	for i := range s.Vars {
		vars[i] = s.Vars[i].Counts()
	}
	return &run{interval: s.Interval, hist: s.Hist, units: s.UnitsByPC, vars: vars}
}

// diagnose is the analysis core shared by both front ends: the
// variable-discounter and attribution over normal and buggy run 0, raw
// costs from buggy run 0, and the hist-discounter of every buggy run against
// the normal corpus (nil when the hist-discounter is disabled); then the
// calibrated ranking and the bug-pattern classification. The report is
// identical for any worker count.
func diagnose(ctx context.Context, p Params, info *debuginfo.Info, sch *schema.Schema, normal *run, buggyRuns []*run, corpus *Corpus) (*Report, error) {
	workers := parallel.Workers(p.Workers)
	buggy := buggyRuns[0]
	pairs := pairVars(normal.vars, buggy.vars)
	vars, err := analyzeVariables(ctx, p, sch, pairs)
	if err != nil {
		return nil, err
	}
	attributed := attributeVariables(pairs, vars, info)

	// Raw costs from the buggy run: max of PC-sample cost and
	// variable-based cost (paper §5.1).
	pcCost := pcCostApp(buggy.hist, buggy.interval, info)
	varCost := map[string]float64{}
	if !p.DisableVarCost {
		varCost = varCostApp(buggy.units, buggy.interval, info)
	}

	// Hist-discounter for functions with no variable verdict.
	var hist map[string]float64
	if !p.DisableHistDiscounter {
		buggyRanks, err := costRanks(ctx, workers, buggyRuns, info)
		if err != nil {
			return nil, err
		}
		if hist, err = histDiscounter(ctx, p, corpus, buggyRanks); err != nil {
			return nil, err
		}
	}

	// The function universe: every function with a raw cost.
	universe := make([]string, 0, len(pcCost)+len(varCost))
	seen := map[string]bool{}
	for fn := range pcCost {
		seen[fn] = true
		universe = append(universe, fn)
	}
	for fn := range varCost {
		if !seen[fn] {
			universe = append(universe, fn)
		}
	}
	sort.Strings(universe)

	// Per-function cost attribution fans out over the worker pool; every
	// input (cost maps, attributed variables, hist ratios) is read-only
	// from here on and each index fills only its own row, so the rows —
	// and after the deterministic sort, the whole ranking — are identical
	// for any worker count.
	report := &Report{Params: p, Variables: vars}
	funcs, err := parallel.MapCtx(ctx, workers, len(universe), func(i int) FuncReport {
		fn := universe[i]
		fr := FuncReport{
			Name:    fn,
			PCCost:  pcCost[fn],
			VarCost: varCost[fn],
		}
		fr.RawCost = fr.PCCost
		if fr.VarCost > fr.RawCost {
			fr.RawCost = fr.VarCost
		}

		// Function discount: the minimum discount among its tested
		// variables; hist-discounter only when no variable verdict
		// exists (paper §5.1). Attributed variables are pre-sorted, so
		// ties resolve deterministically (and in favor of tagged,
		// locally-declared variables, which carry more diagnostic
		// signal for the classifier).
		for _, vr := range attributed[fn] {
			if !vr.Tested {
				continue
			}
			if fr.TopVariable == nil || vr.Discount < fr.TopVariable.Discount {
				fr.TopVariable = vr
			}
		}
		switch {
		case fr.TopVariable != nil:
			fr.Discount = fr.TopVariable.Discount
			fr.DiscountSource = "variable"
		case hist != nil:
			if r, ok := hist[fn]; ok {
				fr.Discount = r
				fr.DiscountSource = "hist"
			} else {
				fr.DiscountSource = "none"
			}
		default:
			fr.DiscountSource = "none"
		}
		fr.Calibrated = fr.RawCost * (1 - fr.Discount)
		return fr
	})
	if err != nil {
		return nil, err
	}
	report.Funcs = funcs

	sort.Slice(report.Funcs, func(i, j int) bool {
		a, b := &report.Funcs[i], &report.Funcs[j]
		if a.Calibrated != b.Calibrated {
			return a.Calibrated > b.Calibrated
		}
		if a.RawCost != b.RawCost {
			return a.RawCost > b.RawCost
		}
		return a.Name < b.Name
	})
	for i := range report.Funcs {
		report.Funcs[i].Rank = i + 1
	}

	// Bug-pattern inference and block localization for every ranked
	// function (the paper reports them for top-ranked functions; having
	// them everywhere costs nothing and helps the harness). Rows are
	// disjoint, so this fans out too.
	if err := parallel.ForEachCtx(ctx, workers, len(report.Funcs), func(i int) {
		fr := &report.Funcs[i]
		var match *VariableReport
		fr.Pattern, match = classify(p, attributed[fr.Name], fr.TopVariable, fr.Rank == 1)
		if match != nil {
			fr.TopVariable = match
		}
		fr.Blocks = localizeBlocks(info, fr)
	}); err != nil {
		return nil, err
	}
	return report, nil
}

// localizeBlocks maps the top variable's abnormal sample PCs to basic
// blocks, most-hit first.
func localizeBlocks(info *debuginfo.Info, fr *FuncReport) []BlockHit {
	if fr.TopVariable == nil || len(fr.TopVariable.AbnormalPCs) == 0 {
		return nil
	}
	counts := map[string]*BlockHit{}
	for _, pc := range fr.TopVariable.AbnormalPCs {
		fn, blk := info.BlockAt(pc)
		if fn == nil || blk == nil || fn.Name != fr.Name {
			continue
		}
		if h, ok := counts[blk.Label]; ok {
			h.Count++
			continue
		}
		counts[blk.Label] = &BlockHit{Block: blk.Label, Line: info.LineAt(pc), Count: 1}
	}
	out := make([]BlockHit, 0, len(counts))
	for _, h := range counts {
		out = append(out, *h)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].Block < out[j].Block
	})
	return out
}

// classify applies the paper's root-cause pattern rules (§5.2) in order,
// checking each rule against every anomalous variable attributed to the
// function. It returns the inferred pattern and the variable that matched
// (nil when no rule fired).
func classify(p Params, vars []*VariableReport, topVar *VariableReport, topRanked bool) (Pattern, *VariableReport) {
	var anomalous []*VariableReport
	for _, v := range vars {
		if v.Tested && v.Discount < p.DefaultDiscount {
			anomalous = append(anomalous, v)
		}
	}
	// Rule 1: a loop/conditional variable stays the same *abnormally*
	// long — a stuck streak well beyond anything the normal execution
	// exhibited -> Missing Constraint. The streak is the processing-cost
	// evidence even when another dimension produced the minimum ratio (a
	// single stuck value is one giant run-length observation, which
	// distribution tests dilute).
	for _, v := range anomalous {
		if (v.Tags.Has(schema.TagLoop) || v.Tags.Has(schema.TagCond)) && v.Stuck(p) {
			return PatternMissingConstraint, v
		}
	}
	// Rule 2: a loop induction variable has abnormal values or deltas ->
	// Scalability.
	for _, v := range anomalous {
		if v.Tags.Has(schema.TagLoop) && (v.Dimension == DimValue || v.Dimension == DimDelta) {
			return PatternScalability, v
		}
	}
	// Rule 3: a conditional-expression variable is abnormal -> Wrong
	// Constraint.
	for _, v := range anomalous {
		if v.Tags.Has(schema.TagCond) {
			return PatternWrongConstraint, v
		}
	}
	// Rule 4: the most costly function looks normal and only
	// non-basic-type (pointer) variables were sampled: without basic
	// values there is not enough information for the other patterns ->
	// Scalability.
	if topRanked && topVar != nil && topVar.IsPointer &&
		topVar.Dimension == DimCost && topVar.Discount >= p.DefaultDiscount {
		return PatternScalability, topVar
	}
	return PatternNC, nil
}

package analysis

import (
	"context"
	"sort"

	"vprof/internal/debuginfo"
	"vprof/internal/parallel"
	"vprof/internal/sampler"
	"vprof/internal/schema"
	"vprof/internal/sketch"
	"vprof/internal/stats"
)

// dimCounts is one candidate dimension's pair of counted observations.
type dimCounts struct {
	d    Dimension
	n, b stats.Multiset
}

// discountVariable computes the discount ratio for one variable across the
// paper's three dimensions and returns the verdict with the minimum raw
// ratio (raw, not floored — dimension selection compares raw ratios, per the
// paper's Redis-8668 walkthrough) plus the dimension that produced it.
// Pointer values (addresses) carry no meaning across runs, so only the
// processing-cost dimension applies to them (§5.1); DimensionsValueOnly is
// the ablation switch.
func discountVariable(p Params, isPointer bool, n, b *sketch.VarCounts) (float64, Dimension, bool) {
	dims := []dimCounts{
		{DimValue, n.Values, b.Values},
		{DimDelta, n.Deltas, b.Deltas},
		{DimCost, n.Runs, b.Runs},
	}
	switch {
	case isPointer:
		dims = dims[2:]
	case p.DimensionsValueOnly:
		dims = dims[:1]
	}
	best, bestRaw := 1.0, 2.0
	bestDim := DimNone
	tested := false
	for _, dm := range dims {
		r, raw, ok := discountOneDim(p, dm.n, dm.b)
		if !ok {
			continue
		}
		tested = true
		if raw < bestRaw || bestDim == DimNone {
			best, bestRaw = r, raw
			bestDim = dm.d
		}
	}
	if !tested {
		return 1, DimNone, false
	}
	return best, bestDim, true
}

// discountOneDim computes the discount ratio for a single dimension,
// returning both the floored ratio and the raw ratio before the
// ValidDiscount floor (dimension selection compares raw ratios, per the
// paper's Redis-8668 walkthrough: value 0.12 vs cost 0, cost wins). ok is
// false when there is not enough information in either execution.
func discountOneDim(p Params, normal, buggy stats.Multiset) (ratio, raw float64, ok bool) {
	nN, nB := normal.Total(), buggy.Total()
	minS, oneS := int64(p.MinSamples), int64(p.OneSidedSamples)
	switch {
	case nN == 0 && nB == 0:
		return 1, 1, false
	case nN < minS && nB < minS:
		// Too little data on both sides: no information.
		return 1, 1, false
	case nN < minS || nB < minS:
		// One side has data, the other (almost) none. If the
		// populated side is substantial this is itself anomalous —
		// the paper's MDEV-16289 case (0 normal vs 30+ buggy samples
		// of clust_index gave a zero discount).
		if nN >= oneS || nB >= oneS {
			return 0, 0, true
		}
		return p.DefaultDiscount, p.DefaultDiscount, true
	}

	res, err := stats.ADKSample(normal, buggy)
	if err != nil {
		// Degenerate: e.g. the variable holds the same constant in
		// both runs. Indistinguishable distributions.
		return p.DefaultDiscount, p.DefaultDiscount, true
	}
	if res.P >= p.PValue {
		// Cannot reject "same distribution" with confidence: apply the
		// default discount.
		return p.DefaultDiscount, p.DefaultDiscount, true
	}
	raw = 1 - stats.Hellinger(normal, buggy)
	ratio = raw
	if ratio < p.ValidDiscount {
		ratio = 0
	}
	return ratio, raw, true
}

// span returns the smallest and largest value of a counted multiset; ok is
// false when it is empty.
func span(m stats.Multiset) (lo, hi float64, ok bool) {
	if len(m) == 0 {
		return 0, 0, false
	}
	return m[0].V, m[len(m)-1].V, true
}

// abnormalPCs identifies buggy samples that are anomalous along the given
// dimension against the normal run's counts and returns their PCs (with
// multiplicity), used to localize basic blocks. It needs the buggy run's
// ordered samples, which only decoded profiles carry: on a sketch there are
// none and the result is empty.
func abnormalPCs(dim Dimension, normal *sketch.VarCounts, buggy []sampler.Sample) []int {
	marks := abnormalPositions(dim, normal, sketch.TickSeries(buggy))
	if len(marks) == 0 {
		return nil
	}
	// Map marked tick positions back to sample PCs: walk buggy samples,
	// tracking the per-tick index.
	var out []int
	pos := -1
	var lastTick int64 = -1
	for _, s := range buggy {
		if s.Tick != lastTick {
			lastTick = s.Tick
			pos++
		}
		if marks[pos] {
			out = append(out, int(s.PC))
		}
	}
	return out
}

// abnormalPositions marks the indices of buggy per-tick observations that
// fall outside what the normal execution exhibited.
func abnormalPositions(dim Dimension, normal *sketch.VarCounts, buggy []float64) map[int]bool {
	marks := map[int]bool{}
	switch dim {
	case DimValue, DimNone:
		lo, hi, ok := span(normal.Values)
		for i, v := range buggy {
			if !ok || v < lo || v > hi {
				marks[i] = true
			}
		}
	case DimDelta:
		lo, hi, ok := span(normal.Deltas)
		last := 0 // index of the last distinct value
		for i := 1; i < len(buggy); i++ {
			if buggy[i] == buggy[last] {
				continue
			}
			d := buggy[i] - buggy[last]
			last = i
			if !ok || d < lo || d > hi {
				marks[i] = true
			}
		}
	case DimCost:
		maxRun, ok := normal.MaxRun, normal.Count > 0
		run := 1
		for i := 1; i < len(buggy); i++ {
			if buggy[i] == buggy[i-1] {
				run++
			} else {
				run = 1
			}
			if !ok || float64(run) > maxRun {
				marks[i] = true
			}
		}
		if len(buggy) == 1 && !ok {
			marks[0] = true
		}
	}
	return marks
}

// varPair joins one variable's counts across the two runs; a side where the
// variable does not appear holds noCounts.
type varPair struct {
	key  string
	n, b *sketch.VarCounts
}

var noCounts = &sketch.VarCounts{}

// pairVars merge-joins the normal and buggy runs' variables (both ascending
// by key).
func pairVars(normal, buggy []sketch.VarCounts) []varPair {
	out := make([]varPair, 0, len(normal)+len(buggy))
	i, j := 0, 0
	for i < len(normal) || j < len(buggy) {
		var nk, bk string
		if i < len(normal) {
			nk = normal[i].Key()
		}
		if j < len(buggy) {
			bk = buggy[j].Key()
		}
		switch {
		case j >= len(buggy) || (i < len(normal) && nk < bk):
			out = append(out, varPair{nk, &normal[i], noCounts})
			i++
		case i >= len(normal) || bk < nk:
			out = append(out, varPair{bk, noCounts, &buggy[j]})
			j++
		default:
			out = append(out, varPair{nk, &normal[i], &buggy[j]})
			i++
			j++
		}
	}
	return out
}

// analyzeVariables runs the variable-discounter over every monitored
// variable appearing in either run, returning reports keyed by
// "func\x00name". Variables are independent, so the per-variable statistics
// fan out over the worker pool; each index writes only its own report, so
// the result is identical for any worker count. Cancellation drains the pool
// and surfaces ctx.Err().
func analyzeVariables(ctx context.Context, p Params, sch *schema.Schema, pairs []varPair) (map[string]*VariableReport, error) {
	reports, err := parallel.MapCtx(ctx, parallel.Workers(p.Workers), len(pairs), func(i int) *VariableReport {
		n, b := pairs[i].n, pairs[i].b
		// The buggy side's identity wins when both runs carry the
		// variable.
		id := b
		if b == noCounts {
			id = n
		}
		vr := &VariableReport{
			Func:         id.Func,
			Name:         id.Name,
			IsPointer:    id.IsPointer,
			NormalCount:  int(n.Count),
			BuggyCount:   int(b.Count),
			MaxRunNormal: n.MaxRun,
			MaxRunBuggy:  b.MaxRun,
			RunsBuggy:    int(b.NumRuns),
		}
		if e := sch.Lookup(id.Func, id.Name); e != nil {
			vr.Tags = e.Tags
		}
		vr.Discount, vr.Dimension, vr.Tested = discountVariable(p, id.IsPointer, n, b)
		if vr.Tested && vr.Discount < p.DefaultDiscount {
			vr.AbnormalPCs = abnormalPCs(vr.Dimension, n, b.Samples)
		}
		return vr
	})
	if err != nil {
		return nil, err
	}
	out := make(map[string]*VariableReport, len(pairs))
	for i := range pairs {
		out[pairs[i].key] = reports[i]
	}
	return out, nil
}

// attributeVariables maps variable reports to functions: locals to their
// declaring function; globals to every function containing a PC at which the
// global was sampled in the buggy run (paper §5.1).
func attributeVariables(pairs []varPair, vars map[string]*VariableReport, info *debuginfo.Info) map[string][]*VariableReport {
	out := map[string][]*VariableReport{}
	for _, pr := range pairs {
		vr := vars[pr.key]
		if vr.Func != debuginfo.GlobalScope {
			out[vr.Func] = append(out[vr.Func], vr)
			continue
		}
		var fns []string
		for _, pc := range pr.b.PCs {
			if fn := info.FuncAt(int(pc)); fn != nil {
				fns = append(fns, fn.Name)
			}
		}
		sort.Strings(fns)
		for k, fn := range fns {
			if k == 0 || fn != fns[k-1] {
				out[fn] = append(out[fn], vr)
			}
		}
	}
	for _, list := range out {
		sortAttributed(list)
	}
	return out
}

// sortAttributed is the deterministic per-function ordering of attributed
// variables: most anomalous first; on ties, tagged variables (more
// diagnostic signal) and locals before globals, then by name.
func sortAttributed(list []*VariableReport) {
	sort.Slice(list, func(i, j int) bool {
		a, b := list[i], list[j]
		if a.Discount != b.Discount {
			return a.Discount < b.Discount
		}
		aTag, bTag := a.Tags != schema.TagNone, b.Tags != schema.TagNone
		if aTag != bTag {
			return aTag
		}
		aLocal, bLocal := a.Func != debuginfo.GlobalScope, b.Func != debuginfo.GlobalScope
		if aLocal != bLocal {
			return aLocal
		}
		if a.Func != b.Func {
			return a.Func < b.Func
		}
		return a.Name < b.Name
	})
}

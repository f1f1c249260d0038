package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"vprof/internal/analysis"
	"vprof/internal/baselines"
	"vprof/internal/bugs"
	"vprof/internal/harness"
	"vprof/internal/parallel"
	"vprof/internal/sampler"
)

// offlineRenderTop is the row count `vprof diagnose` prints by default.
const offlineRenderTop = 10

// ranks is one issue's Table 3 outcome: the root cause's rank under vProf,
// the hist-disc ablation and the five baselines (0 = not ranked, COZ's
// crash included). Unresolved issues carry only the vProf rank.
type ranks struct {
	VProf, HistDisc, Gprof, Perf, PerfPT, Coz, StatDebug int
}

// allIssues is every issue in registry order (b1–b15, u1–u3), or the
// smoke subset.
func allIssues(smoke bool) []*bugs.Workload {
	if smoke {
		return []*bugs.Workload{bugs.ByID("b1"), bugs.ByID("b7"), bugs.ByID("u2")}
	}
	return append(bugs.All(), bugs.UnresolvedIssues()...)
}

// issueOrder returns every issue (b1–b15, u1–u3) in a seed-chosen order.
func issueOrder(seed int64, smoke bool) []*bugs.Workload {
	all := allIssues(smoke)
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
	return all
}

// diagnoseOffline is the `vprof diagnose` pipeline for one issue, spelled
// out from its public pieces so each layer can be timed: harness.Runs normal
// and buggy profiled runs fanned out over the default worker pool (exactly
// as bugs.Built.Analyze does), each merged, then analysis and render.
func diagnoseOffline(tr *tracer, parent, req int64, b *bugs.Built) (*analysis.Report, string, error) {
	p := analysis.DefaultParams()
	profile := func(i int, buggy bool) *sampler.Profile {
		prog, meta, cfg, name := b.NormalProg, b.NormalMeta, b.W.NormalConfig(i), "normal"
		if buggy {
			prog, meta, cfg, name = b.Prog, b.Meta, b.W.BuggyConfig(i), "buggy"
		}
		sp := tr.begin("sampler", "sampler.ProfileRun "+name, parent, req)
		res := sampler.ProfileRun(prog, meta, cfg, sampler.Options{Interval: bugs.DefaultInterval})
		sp.end()
		m := tr.begin("merge", "sampler.MergeProfiles", parent, req)
		out := sampler.MergeProfiles(res.Profiles)
		m.end()
		return out
	}
	type pair struct{ normal, buggy *sampler.Profile }
	pairs := parallel.Map(parallel.Workers(p.Workers), harness.Runs, func(i int) pair {
		return pair{profile(i, false), profile(i, true)}
	})
	in := analysis.Input{Debug: b.Prog.Debug, Schema: b.Schema}
	for _, pr := range pairs {
		in.Normal = append(in.Normal, pr.normal)
		in.Buggy = append(in.Buggy, pr.buggy)
	}
	sp := tr.begin("analysis", "analysis.Analyze", parent, req)
	rep, err := analysis.Analyze(in, p)
	sp.end()
	if err != nil {
		return nil, "", err
	}
	sp = tr.begin("render", "Report.Render", parent, req)
	out := rep.Render(offlineRenderTop)
	sp.end()
	return rep, out, nil
}

// tableExtras runs the Table 3 columns beyond vProf for a resolved issue:
// the hist-disc ablation and the five baseline tools.
func tableExtras(tr *tracer, parent, req int64, b *bugs.Built, r *ranks) error {
	root := b.W.RootFunc
	sp := tr.begin("histdisc", "harness.HistDiscOnly", parent, req)
	hd, err := harness.HistDiscOnly(b)
	sp.end()
	if err != nil {
		return err
	}
	r.HistDisc = hd.Rank(root)
	target := b.Target()
	for _, tool := range []struct {
		layer, name string
		run         func(*baselines.Target) *baselines.Result
		rank        *int
	}{
		{"baselines", "baselines.Gprof", baselines.Gprof, &r.Gprof},
		{"baselines", "baselines.Perf", baselines.Perf, &r.Perf},
		{"baselines", "baselines.PerfPT", baselines.PerfPT, &r.PerfPT},
		{"baselines", "baselines.StatDebug", baselines.StatDebug, &r.StatDebug},
		{"coz", "baselines.Coz", baselines.Coz, &r.Coz},
	} {
		sp := tr.begin(tool.layer, tool.name, parent, req)
		res := tool.run(target)
		sp.end()
		*tool.rank = res.Rank(root)
		if res.Failure != "" {
			*tool.rank = 0
		}
	}
	return nil
}

// runOffline is the offline-table3 workload: one cold Table 3 sweep over
// every issue in seed order, then warm repeats of the 18 vProf diagnoses in
// the same process.
func runOffline(o opts, tr *tracer) (*result, error) {
	order := issueOrder(o.seed, o.smoke)
	res := newResult()

	// Set-up: compile + schema for every issue, repeated; the median pass
	// is setup_s and the last pass's builds are used.
	var built []*bugs.Built
	var setups []time.Duration
	for rep := 0; rep < setupReps; rep++ {
		start := time.Now()
		built = built[:0]
		for _, w := range order {
			sp := tr.begin("compile", "bugs.Workload.Build", 0, tr.newReq())
			b, err := w.Build()
			sp.end()
			if err != nil {
				return nil, fmt.Errorf("build %s: %w", w.ID, err)
			}
			built = append(built, b)
		}
		setups = append(setups, time.Since(start))
	}
	res.setup = medianDur(setups)

	// Cold sweep.
	got := map[string]ranks{}
	renders := map[string]string{}
	var coldDiag []time.Duration
	coldBy := byIssue{}
	ops := 0
	heap := startHeapSampler()
	sweepStart := time.Now()
	for _, b := range built {
		req := tr.newReq()
		root := tr.begin("driver", "issue "+b.W.ID, 0, req)
		start := time.Now()
		d := tr.begin("driver", "diagnose", root.id(), req)
		rep, out, err := diagnoseOffline(tr, d.id(), req, b)
		d.end()
		coldDiag = append(coldDiag, time.Since(start))
		coldBy.add(b.W.ID, time.Since(start))
		ops++
		if err != nil {
			root.end()
			return nil, fmt.Errorf("diagnose %s: %w", b.W.ID, err)
		}
		r := ranks{VProf: rep.Rank(b.W.RootFunc)}
		renders[b.W.ID] = out
		if !b.W.Unresolved {
			if err := tableExtras(tr, root.id(), req, b, &r); err != nil {
				root.end()
				return nil, fmt.Errorf("table 3 extras %s: %w", b.W.ID, err)
			}
			ops += 6
		}
		root.end()
		got[b.W.ID] = r
	}
	table3 := time.Since(sweepStart)
	coldEnd := tr.snapshot()

	// Warm repeats: the same diagnoses, same process, same inputs, for a
	// quarter of the time budget (at least one pass).
	var warmPass []time.Duration
	warmBy := byIssue{}
	warmRenderMismatch := 0
	deadline := time.Now().Add(o.seconds / 4)
	for pass := 0; pass == 0 || time.Now().Before(deadline); pass++ {
		start := time.Now()
		for _, b := range built {
			req := tr.newReq()
			t0 := time.Now()
			d := tr.begin("driver", "diagnose warm", 0, req)
			_, out, err := diagnoseOffline(tr, d.id(), req, b)
			d.end()
			warmBy.add(b.W.ID, time.Since(t0))
			if err != nil {
				return nil, fmt.Errorf("warm diagnose %s: %w", b.W.ID, err)
			}
			res.attempted++
			if out != renders[b.W.ID] {
				warmRenderMismatch++
				res.failed++
			}
		}
		warmPass = append(warmPass, time.Since(start))
	}
	res.heapMB = heap.stop()
	res.info["heap_end_mb"] = metric{liveHeapMB(), "MB"}

	// Correctness: pinned ranks for every tool, top-5 count.
	top5 := 0
	for _, b := range built {
		r := got[b.W.ID]
		if r.VProf >= 1 && r.VProf <= 5 {
			top5++
		}
		res.attempted += 1
		if !b.W.Unresolved {
			res.attempted += 6
		}
		if want, ok := pinnedRanks[b.W.ID]; !ok || want != r {
			res.failed++
			res.logf("rank mismatch %s: got %+v want %+v", b.W.ID, r, want)
		}
	}
	if top5 != len(built) {
		res.failed++
		res.logf("top5_issues = %d, want %d", top5, len(built))
	}
	if warmRenderMismatch > 0 {
		res.logf("%d warm renders differ from the cold ones", warmRenderMismatch)
	}
	res.check(ops > 0, "no operations ran")

	var diagSum time.Duration
	for _, d := range coldDiag {
		diagSum += d
	}
	res.e2e["setup_s"] = metric{res.setup.Seconds(), "s"}
	res.e2e["ops_per_s"] = metric{float64(ops) / table3.Seconds(), "1/s"}
	res.e2e["diagnose_ms"] = metric{coldBy.typicalMs(), "ms"}
	res.info["diagnose_p50_ms"] = metric{median(ms(coldDiag)), "ms"}
	res.e2e["diagnose_warm_ms"] = metric{warmBy.typicalMs(), "ms"}
	res.e2e["heap_mb"] = metric{res.heapMB, "MB"}
	res.info["table3_s"] = metric{table3.Seconds(), "s"}
	res.info["diagnose_s"] = metric{diagSum.Seconds(), "s"}
	res.info["diagnose_warm_s"] = metric{medianDur(warmPass).Seconds(), "s"}
	res.info["top5_issues"] = metric{float64(top5), "count"}
	res.info["warm_passes"] = metric{float64(len(warmPass)), "count"}

	if tr != nil {
		res.offlineLayers(tr, built, coldEnd)
	}
	return res, nil
}

// offlineLayers fills the per-layer metrics of the traced offline run. The
// busy split covers the cold sweep. analysis.warm_s is analysis busy time per
// warm pass. A sequential reference pass afterwards measures what the
// parallel sweep cannot attribute: allocations per layer, value samples, and
// the same configurations run bare on the VM (Table 5's overhead base).
func (r *result) offlineLayers(tr *tracer, built []*bugs.Built, cold []Span) {
	all := tr.snapshot()
	var sweep []Span
	for _, s := range cold {
		if s.Layer != "compile" {
			sweep = append(sweep, s)
		}
	}
	busy := layerBusy(sweep)
	for _, l := range []string{"sampler", "merge", "analysis", "render", "histdisc", "baselines", "coz"} {
		r.layer[l+".busy_s"] = metric{busy[l].Seconds(), "s"}
	}
	var sum time.Duration
	for _, d := range busy {
		sum += d
	}
	r.info["layers_busy_sum_s"] = metric{sum.Seconds(), "s"}
	r.traceSummary(sweep)
	r.traceOverhead(len(all) - len(filterLayer(all, "compile")))

	compile := filterLayer(all, "compile")
	r.layer["compile.busy_s"] = metric{layerBusy(compile)["compile"].Seconds() / setupReps, "s"}
	r.layer["compile.calls"] = metric{float64(len(compile)) / setupReps, "count"}

	warm := all[len(cold):]
	passes := float64(len(filterName(warm, "diagnose warm"))) / float64(len(built))
	r.layer["analysis.warm_s"] = metric{layerBusy(warm)["analysis"].Seconds() / passes, "s"}

	var ref struct {
		profile, bare         time.Duration
		ticks, samples, runs  int64
		sampAlloc, mergeAlloc uint64
		anaAlloc              uint64
	}
	for _, b := range built {
		in := analysis.Input{Debug: b.Prog.Debug, Schema: b.Schema}
		for i := 0; i < harness.Runs; i++ {
			for _, buggy := range []bool{false, true} {
				prog, meta, cfg := b.NormalProg, b.NormalMeta, b.W.NormalConfig(i)
				if buggy {
					prog, meta, cfg = b.Prog, b.Meta, b.W.BuggyConfig(i)
				}
				procs, wall := sampler.Run(prog, cfg)
				ref.bare += wall
				for _, p := range procs {
					ref.ticks += p.VM.Ticks()
				}
				a0 := allocBytes()
				t0 := time.Now()
				res := sampler.ProfileRun(prog, meta, cfg, sampler.Options{Interval: bugs.DefaultInterval})
				ref.profile += time.Since(t0)
				a1 := allocBytes()
				merged := sampler.MergeProfiles(res.Profiles)
				ref.mergeAlloc += allocBytes() - a1
				ref.sampAlloc += a1 - a0
				ref.samples += int64(len(merged.Samples))
				ref.runs++
				if buggy {
					in.Buggy = append(in.Buggy, merged)
				} else {
					in.Normal = append(in.Normal, merged)
				}
			}
		}
		a0 := allocBytes()
		if _, err := analysis.Analyze(in, analysis.DefaultParams()); err != nil {
			r.logf("reference analysis %s: %v", b.W.ID, err)
		}
		ref.anaAlloc += allocBytes() - a0
	}
	r.layer["vm.bare_s"] = metric{ref.bare.Seconds(), "s"}
	r.layer["vm.ticks"] = metric{float64(ref.ticks), "count"}
	r.layer["sampler.runs"] = metric{float64(ref.runs), "count"}
	r.layer["sampler.value_samples"] = metric{float64(ref.samples), "count"}
	r.layer["sampler.alloc_mb"] = metric{float64(ref.sampAlloc) / (1 << 20), "MB"}
	r.layer["sampler.overhead_x"] = metric{ref.profile.Seconds() / ref.bare.Seconds(), "x"}
	r.layer["merge.alloc_mb"] = metric{float64(ref.mergeAlloc) / (1 << 20), "MB"}
	r.layer["analysis.alloc_mb"] = metric{float64(ref.anaAlloc) / (1 << 20), "MB"}
}

// allocBytes is the process's cumulative heap allocation.
func allocBytes() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.TotalAlloc
}

func filterLayer(spans []Span, layer string) []Span {
	var out []Span
	for _, s := range spans {
		if s.Layer == layer {
			out = append(out, s)
		}
	}
	return out
}

func filterName(spans []Span, name string) []Span {
	var out []Span
	for _, s := range spans {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

package harness_test

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"

	"vprof/internal/analysis"
	"vprof/internal/bugs"
	"vprof/internal/harness"
	"vprof/internal/sampler"
	"vprof/internal/sketch"
)

var update = flag.Bool("update", false, "rewrite golden files")

// analysisGoldenDir holds the absolute analysis goldens: one full-mode and
// one sketch-mode report dump per reproduced issue.
var analysisGoldenDir = filepath.Join("..", "..", "testdata", "golden", "analysis")

// paperGoldenDir holds the absolute goldens of the rendered paper
// artifacts: Tables 3/4/5, Figure 8 and the causal-validation table.
var paperGoldenDir = filepath.Join("..", "..", "testdata", "golden", "paper")

// TestAnalysisGolden pins every field of the full-profile and the sketch
// analysis reports of all 18 reproduced issues (b1-b15, u1-u3), floats by
// their exact bits. Unlike TestSketchRankIdentity, which compares the two
// paths with each other, these files are absolute: a change that moves any
// bit of either report fails here. Re-bless with -update only on purpose.
func TestAnalysisGolden(t *testing.T) {
	all := append(bugs.All(), bugs.UnresolvedIssues()...)
	for _, w := range all {
		w := w
		t.Run(w.ID, func(t *testing.T) {
			t.Parallel()
			b, err := w.Build()
			if err != nil {
				t.Fatal(err)
			}
			in := analysis.Input{Debug: b.Prog.Debug, Schema: b.Schema}
			for i := 0; i < harness.Runs; i++ {
				np, _ := b.ProfileNormal(i)
				bp, _ := b.ProfileBuggy(i)
				in.Normal = append(in.Normal, np)
				in.Buggy = append(in.Buggy, bp)
			}
			params := analysis.DefaultParams()
			full, err := analysis.Analyze(in, params)
			if err != nil {
				t.Fatal(err)
			}
			checkGolden(t, analysisGoldenDir, w.ID+".full.txt", dumpReport(full))

			fold := func(ps []*sampler.Profile) []*sketch.Profile {
				out := make([]*sketch.Profile, len(ps))
				for i, p := range ps {
					out[i] = sketch.FromProfile(p)
				}
				return out
			}
			normals := fold(in.Normal)
			sk, err := analysis.AnalyzeSketches(analysis.SketchInput{
				Debug:  b.Prog.Debug,
				Schema: b.Schema,
				Normal: normals[0],
				Corpus: analysis.CorpusOfSketches(normals, b.Prog.Debug),
				Buggy:  fold(in.Buggy),
			}, params)
			if err != nil {
				t.Fatal(err)
			}
			checkGolden(t, analysisGoldenDir, w.ID+".sketch.txt", dumpReport(sk))
		})
	}
}

// checkGolden compares got with the named file under dir, or rewrites the
// file under -update.
func checkGolden(t *testing.T, dir, name, got string) {
	t.Helper()
	path := filepath.Join(dir, name)
	if *update {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) || i < len(wl); i++ {
			var g, w string
			if i < len(gl) {
				g = gl[i]
			}
			if i < len(wl) {
				w = wl[i]
			}
			if g != w {
				t.Fatalf("%s differs at line %d:\n got: %s\nwant: %s", name, i+1, g, w)
			}
		}
	}
}

// dumpReport prints every FuncReport and VariableReport field of rep, one
// record per line, floats in their shortest exact form.
func dumpReport(rep *analysis.Report) string {
	f := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	var sb strings.Builder
	for i := range rep.Funcs {
		fr := &rep.Funcs[i]
		top := "-"
		if fr.TopVariable != nil {
			top = fr.TopVariable.Func + "." + fr.TopVariable.Name
		}
		fmt.Fprintf(&sb, "func %d %s pc=%s var=%s raw=%s disc=%s src=%s cal=%s top=%s pattern=%s blocks=[",
			fr.Rank, fr.Name, f(fr.PCCost), f(fr.VarCost), f(fr.RawCost),
			f(fr.Discount), fr.DiscountSource, f(fr.Calibrated), top, fr.Pattern)
		for j, b := range fr.Blocks {
			if j > 0 {
				sb.WriteByte(' ')
			}
			fmt.Fprintf(&sb, "%s:%d:%d", b.Block, b.Line, b.Count)
		}
		sb.WriteString("]\n")
	}
	keys := make([]string, 0, len(rep.Variables))
	for k := range rep.Variables {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		v := rep.Variables[k]
		fmt.Fprintf(&sb, "var %s.%s tags=%d ptr=%t disc=%s dim=%s n=%d b=%d tested=%t maxrun=%s/%s runs=%d abnormal=[",
			v.Func, v.Name, v.Tags, v.IsPointer, f(v.Discount), v.Dimension,
			v.NormalCount, v.BuggyCount, v.Tested, f(v.MaxRunNormal), f(v.MaxRunBuggy), v.RunsBuggy)
		// Abnormal PCs run-length encoded (pc*repeats) in recorded order.
		for j := 0; j < len(v.AbnormalPCs); {
			n := 1
			for j+n < len(v.AbnormalPCs) && v.AbnormalPCs[j+n] == v.AbnormalPCs[j] {
				n++
			}
			if j > 0 {
				sb.WriteByte(' ')
			}
			fmt.Fprintf(&sb, "%d*%d", v.AbnormalPCs[j], n)
			j += n
		}
		sb.WriteString("]\n")
	}
	return sb.String()
}

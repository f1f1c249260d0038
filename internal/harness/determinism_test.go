package harness_test

import (
	"reflect"
	"testing"

	"vprof/internal/harness"
)

// The parallel analysis engine must be invisible in the output: every table
// rendered with an 8-way worker pool must be byte-for-byte identical to the
// sequential (workers=1) rendering. These are the golden determinism tests
// for the worker-pool fan-out in table3.go / table45.go and the parallel
// discounter underneath them.
//
// Each test also checks both renderings against an absolute golden under
// testdata/golden/paper (re-bless with -update only on purpose), so a
// change that moves the paper's artifacts fails even when it moves them the
// same way at every worker count.

func TestTable3DeterministicAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("full Table 3 is slow")
	}
	seqText, seqRows, err := harness.Table3Workers(1)
	if err != nil {
		t.Fatal(err)
	}
	parText, parRows, err := harness.Table3Workers(8)
	if err != nil {
		t.Fatal(err)
	}
	if seqText != parText {
		t.Errorf("Table 3 differs between workers=1 and workers=8:\n--- workers=1 ---\n%s\n--- workers=8 ---\n%s", seqText, parText)
	}
	if !reflect.DeepEqual(seqRows, parRows) {
		t.Errorf("Table 3 rows differ:\nworkers=1: %+v\nworkers=8: %+v", seqRows, parRows)
	}
	checkGolden(t, paperGoldenDir, "table3.txt", seqText)
	checkGolden(t, paperGoldenDir, "table3.txt", parText)
}

func TestTable4DeterministicAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("full Table 4 is slow")
	}
	seq, err := harness.Table4Workers(1)
	if err != nil {
		t.Fatal(err)
	}
	par, err := harness.Table4Workers(8)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := harness.RenderTable4(par), harness.RenderTable4(seq); got != want {
		t.Errorf("Table 4 differs between workers=1 and workers=8:\n--- workers=1 ---\n%s\n--- workers=8 ---\n%s", want, got)
	}
	checkGolden(t, paperGoldenDir, "table4.txt", harness.RenderTable4(seq))
	checkGolden(t, paperGoldenDir, "table4.txt", harness.RenderTable4(par))
}

func TestTable5DeterministicAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("full Table 5 is slow")
	}
	seq, err := harness.Table5Workers(1)
	if err != nil {
		t.Fatal(err)
	}
	par, err := harness.Table5Workers(8)
	if err != nil {
		t.Fatal(err)
	}
	// InitMs and WallMs are wall-clock measurements and legitimately vary
	// between runs; zero them on both sides before comparing the rendering.
	mask := func(rows []harness.Table5Row) []harness.Table5Row {
		out := make([]harness.Table5Row, len(rows))
		copy(out, rows)
		for i := range out {
			out[i].InitMs = 0
			out[i].WallMs = 0
		}
		return out
	}
	if got, want := harness.RenderTable5(mask(par)), harness.RenderTable5(mask(seq)); got != want {
		t.Errorf("Table 5 (timings masked) differs between workers=1 and workers=8:\n--- workers=1 ---\n%s\n--- workers=8 ---\n%s", want, got)
	}
	checkGolden(t, paperGoldenDir, "table5.txt", harness.RenderTable5(mask(seq)))
	checkGolden(t, paperGoldenDir, "table5.txt", harness.RenderTable5(mask(par)))
}

func TestFigure8DeterministicAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("Figure 8 sweep is slow")
	}
	seq, err := harness.Figure8Workers(1)
	if err != nil {
		t.Fatal(err)
	}
	par, err := harness.Figure8Workers(8)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := harness.RenderFigure8(par), harness.RenderFigure8(seq); got != want {
		t.Errorf("Figure 8 differs between workers=1 and workers=8:\n--- workers=1 ---\n%s\n--- workers=8 ---\n%s", want, got)
	}
	checkGolden(t, paperGoldenDir, "figure8.txt", harness.RenderFigure8(seq))
	checkGolden(t, paperGoldenDir, "figure8.txt", harness.RenderFigure8(par))
}

package main

import (
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// TestDiagnoseGolden pins the rendered output of the end-to-end diagnose
// pipeline on recovery.vp (the paper's Figure 1 workload) byte for byte.
// Re-bless with -update only on purpose.
func TestDiagnoseGolden(t *testing.T) {
	got := captureStdout(t, func() error {
		return cmdDiagnose([]string{"../../testdata/recovery.vp",
			"-normal", "40", "-buggy", "90", "-runs", "2", "-top", "3", "-max-ticks", "200000"})
	})
	path := filepath.Join("..", "..", "testdata", "golden", "analysis", "recovery.diagnose.txt")
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
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
		t.Fatalf("diagnose render changed:\n got:\n%s\nwant:\n%s", got, want)
	}
}

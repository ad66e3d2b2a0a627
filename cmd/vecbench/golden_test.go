package main

import (
	"flag"
	"os"
	"path/filepath"
	"testing"

	"github.com/example/vectrace/internal/core"
)

var update = flag.Bool("update", false, "rewrite golden files under testdata/golden")

// TestFigureGolden pins the exact bytes of Figures 1–2 in both layouts at
// the default problem size and a second one. Regenerate deliberately with:
//
//	go test ./cmd/vecbench -run TestFigureGolden -update
func TestFigureGolden(t *testing.T) {
	for _, tc := range []struct {
		name      string
		figure, n int
		csv       bool
	}{
		{"figure1.golden", 1, 16, false},
		{"figure2.golden", 2, 16, false},
		{"figure1-n12.csv.golden", 1, 12, true},
		{"figure2-n12.csv.golden", 2, 12, true},
	} {
		var got string
		if tc.csv {
			got = captureCSV(t, 0, tc.figure, tc.n, core.Options{})
		} else {
			got = captureRun(t, 0, tc.figure, tc.n, core.Options{})
		}
		path := filepath.Join("testdata", "golden", tc.name)
		if *update {
			if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("missing golden file (run with -update to create): %v", err)
		}
		if string(want) != got {
			t.Errorf("%s differs from its golden:\n--- want\n%s\n--- got\n%s", tc.name, want, got)
		}
	}
}

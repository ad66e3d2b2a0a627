package report

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/example/vectrace/internal/core"
)

var update = flag.Bool("update", false, "rewrite golden files under testdata/golden")

// The golden corpus pins the exact metric values of Tables 1-3 — every
// analysis stage (parser, lowering, interpreter, DDG, Algorithm 1, stride
// classification, profile attribution) feeds these numbers, so any unintended
// behavioral drift anywhere in the pipeline shows up as a golden diff.
// Regenerate deliberately with: go test ./internal/report -run Golden -update

// fmtLA serializes one loop's metrics at full precision (the rendered tables
// round to one decimal, which would mask small regressions).
func fmtLA(la LoopAnalysis) string {
	return fmt.Sprintf("cycles=%.6f packed=%.6f concur=%.6f unit=%.6f%%/%.6f nonunit=%.6f%%/%.6f",
		la.PercentCycles, la.PercentPacked, la.AvgConcurrency,
		la.UnitPct, la.UnitSize, la.NonUnitPct, la.NonUnitSize)
}

// checkGolden compares got against testdata/golden/<name>, rewriting the file
// instead when -update is set.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", "golden", name)
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
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	if string(want) == got {
		return
	}
	wantLines := strings.Split(string(want), "\n")
	gotLines := strings.Split(got, "\n")
	for i := 0; i < len(wantLines) || i < len(gotLines); i++ {
		var w, g string
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if w != g {
			t.Errorf("%s line %d:\n want: %s\n  got: %s", name, i+1, w, g)
		}
	}
	t.Fatalf("%s differs from golden (rerun with -update if the change is intentional)", name)
}

func TestGoldenTable1(t *testing.T) {
	rows, err := Table1Ctx(context.Background(), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for _, r := range rows {
		fmt.Fprintf(&b, "%s|%s|%s\n", r.Benchmark, r.Loop, fmtLA(r.LoopAnalysis))
	}
	b.WriteString("\n")
	b.WriteString(RenderTable1(rows))
	checkGolden(t, "table1.golden", b.String())
}

func TestGoldenTable2(t *testing.T) {
	rows, err := Table2Ctx(context.Background(), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for _, r := range rows {
		fmt.Fprintf(&b, "%s|%s\n", r.Benchmark, fmtLA(r.LoopAnalysis))
	}
	b.WriteString("\n")
	b.WriteString(RenderTable2(rows))
	checkGolden(t, "table2.golden", b.String())
}

func TestGoldenTable3(t *testing.T) {
	rows, err := Table3Ctx(context.Background(), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for _, r := range rows {
		fmt.Fprintf(&b, "%s|%s|%s\n", r.Benchmark, r.Style, fmtLA(r.LoopAnalysis))
	}
	b.WriteString("\n")
	b.WriteString(RenderTable3(rows))
	checkGolden(t, "table3.golden", b.String())
}

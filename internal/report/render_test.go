package report_test

import (
	"strings"
	"testing"

	"context"
	"github.com/example/vectrace/internal/core"
	"github.com/example/vectrace/internal/report"
	"github.com/example/vectrace/internal/testprog"
)

func TestRenderTable1(t *testing.T) {
	rows := []report.T1Row{{
		Benchmark: "433.milc",
		Loop:      "quark_stuff.c : 1452",
		LoopAnalysis: report.LoopAnalysis{
			PercentCycles: 15.4, PercentPacked: 0,
			AvgConcurrency: 2921.1,
			UnitPct:        55.0, UnitSize: 2000.0,
			NonUnitPct: 45.0, NonUnitSize: 4.2,
		},
	}}
	out := report.RenderTable1(rows)
	for _, want := range []string{"433.milc", "quark_stuff.c : 1452", "2921.1", "55.0%", "4.2", "Benchmark"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table 1 rendering missing %q:\n%s", want, out)
		}
	}
	if lines := strings.Count(out, "\n"); lines != 2 {
		t.Errorf("rendering has %d lines, want header + 1 row", lines)
	}
}

func TestRenderTable2And3(t *testing.T) {
	t2 := report.RenderTable2([]report.T2Row{{
		Benchmark: "2-D Gauss-Seidel Stencil",
		LoopAnalysis: report.LoopAnalysis{
			AvgConcurrency: 226, UnitPct: 22.2, UnitSize: 46.1, NonUnitPct: 77.4, NonUnitSize: 9.3,
		},
	}})
	for _, want := range []string{"Gauss-Seidel", "22.2%", "77.4%", "9.3"} {
		if !strings.Contains(t2, want) {
			t.Errorf("Table 2 rendering missing %q", want)
		}
	}
	t3 := report.RenderTable3([]report.T3Row{
		{Benchmark: "FIR", Style: "Array", LoopAnalysis: report.LoopAnalysis{PercentPacked: 99.8}},
		{Benchmark: "FIR", Style: "Pointer", LoopAnalysis: report.LoopAnalysis{PercentPacked: 0}},
	})
	if !strings.Contains(t3, "Array") || !strings.Contains(t3, "Pointer") || !strings.Contains(t3, "99.8%") {
		t.Errorf("Table 3 rendering wrong:\n%s", t3)
	}
}

func TestRenderTable4(t *testing.T) {
	out := report.RenderTable4([]report.T4Row{{
		Benchmark: "Gauss-Seidel", Machine: "Intel Xeon E5630",
		OriginalTime: 1000, TransformedTime: 800, Speedup: 1.25,
	}})
	for _, want := range []string{"Gauss-Seidel", "Xeon", "1.25x", "Speedup"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table 4 rendering missing %q:\n%s", want, out)
		}
	}
}

func TestRenderFigure(t *testing.T) {
	out := report.RenderFigure([]report.FigureRow{
		{Analysis: "Algorithm 1", Statement: "S2", Partitions: 15, AvgSize: 16, MaxSize: 16},
		{Analysis: "Kumar", Statement: "S2", Partitions: 30, AvgSize: 8, MaxSize: 15},
	})
	for _, want := range []string{"Algorithm 1", "Kumar", "S2", "15", "30"} {
		if !strings.Contains(out, want) {
			t.Errorf("figure rendering missing %q:\n%s", want, out)
		}
	}
}

func TestRepresentativeReport(t *testing.T) {
	src := `
double g;
void main() {
  int t;
  int i;
  for (t = 0; t < 5; t++) {
    for (i = 0; i < 8; i++) {
      g = g + 1.0;
    }
  }
  for (i = 0; i < 0; i++) { g = g * 2.0; }  /* never iterates */
}
`
	_, _, tr, err := testprog.CompileAndTrace("rep.c", src)
	if err != nil {
		t.Fatal(err)
	}
	// The inner loop runs five times; the representative is the median of
	// three sampled regions — all identical here, so any is fine.
	rep, err := report.RepresentativeReportCtx(context.Background(), tr, 1, 3, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.TotalCandidateOps != 8 {
		t.Errorf("representative region has %d candidate ops, want 8 (one inner execution)", rep.TotalCandidateOps)
	}

	// A loop absent from the trace has no representative.
	if _, err := report.RepresentativeReportCtx(context.Background(), tr, 99, 3, core.Options{}); err == nil {
		t.Error("missing loop should error")
	}
}

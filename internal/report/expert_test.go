package report_test

import (
	"strings"
	"testing"

	"context"
	"github.com/example/vectrace/internal/core"
	"github.com/example/vectrace/internal/report"
)

// TestRankOpportunities exercises the §4.2 expert-assist use case: given a
// program with one loop the compiler already vectorizes, one loop with a
// large unexploited gap, and one genuinely serial loop, the ranking must put
// the gap loop first and give the serial loop a near-zero score.
func TestRankOpportunities(t *testing.T) {
	src := `
double a[512];
double b[512];
double c[512];
double s;

void main() {
  int i;
  for (i = 0; i < 512; i++) {          /* already vectorized */
    a[i] = 0.5 * i + 1.0;
  }
  for (i = 0; i < 512; i++) {          /* gap: pointer-free but hidden by mod */
    b[i] = 2.0 * a[(i * 3) % 512] + a[i];
  }
  for (i = 1; i < 512; i++) {          /* serial recurrence */
    c[i] = c[i-1] * 0.5 + 1.0;
  }
  print(b[511]);
  print(c[511]);
}
`
	rows, err := report.RankKernel("rank.c", src, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) < 3 {
		t.Fatalf("ranked %d loops, want >= 3", len(rows))
	}
	byLine := map[int]report.Opportunity{}
	for _, o := range rows {
		byLine[o.Line] = o
	}

	vec, gap, serial := byLine[9], byLine[12], byLine[15]
	if vec.PercentPacked != 100 {
		t.Errorf("vectorized loop packed = %.1f, want 100", vec.PercentPacked)
	}
	if vec.Gap != 0 {
		t.Errorf("vectorized loop gap = %.1f, want 0", vec.Gap)
	}
	if gap.PercentPacked != 0 || gap.UnitPct < 30 {
		t.Errorf("gap loop: packed=%.1f unit=%.1f, want 0 and substantial", gap.PercentPacked, gap.UnitPct)
	}
	if gap.CompilerReason == "" {
		t.Error("gap loop should carry the compiler's rejection reason")
	}
	if serial.UnitPct > 60 {
		t.Errorf("serial loop unit potential = %.1f, expected mostly serial", serial.UnitPct)
	}
	// Ranking: the gap loop outranks the fully exploited one.
	if rows[0].Line != 12 {
		t.Errorf("top-ranked loop on line %d, want the gap loop (12): %+v", rows[0].Line, rows)
	}
	if gap.Score <= vec.Score {
		t.Errorf("gap score %.1f should exceed vectorized loop's %.1f", gap.Score, vec.Score)
	}

	out := report.RenderOpportunities(rows)
	if !strings.Contains(out, "packed%") || !strings.Contains(out, "score") {
		t.Error("rendering missing headers")
	}
}

// TestClassifyBlocker covers the compiler-writer classification (§1, third
// use case): each case-study blocker maps to the class the paper assigns it.
func TestClassifyBlocker(t *testing.T) {
	cases := map[string]report.BlockerClass{
		"":                                      report.BlockerNone,
		"loop-carried dependence (distance -1)": report.BlockerStaticTransform, // Gauss-Seidel
		"trip count 3 too small to vectorize":   report.BlockerStaticTransform, // milc inner
		"non-unit stride access (stride 144 bytes)":   report.BlockerStaticLayout,   // milc AoS
		"possible aliasing between memory accesses":   report.BlockerStaticAnalysis, // UTDSP pointer
		"no unique induction variable (3 candidates)": report.BlockerStaticAnalysis,
		"data-dependent (indirect) access pattern":    report.BlockerDynamic, // gromacs
		"data-dependent control flow in loop body":    report.BlockerDynamic, // PDE, povray
		"data-dependent (non-affine) access pattern":  report.BlockerDynamic,
		"loop-carried scalar recurrence":              report.BlockerStaticTransform, // IIR
		"loop-invariant store recurrence":             report.BlockerStaticTransform,
		"function call in loop body":                  report.BlockerOther,
		"no floating-point operations":                report.BlockerOther,
	}
	for reason, want := range cases {
		if got := report.ClassifyBlocker(reason); got != want {
			t.Errorf("ClassifyBlocker(%q) = %q, want %q", reason, got, want)
		}
	}
}

// TestGaussSeidelTwoOfEightAdditions reproduces the paper's §4.4 sentence
// verbatim: "The analysis classified two out of the eight addition
// operations ... as vectorizable" for the original Gauss-Seidel statement.
func TestGaussSeidelTwoOfEightAdditions(t *testing.T) {
	rows, err := report.Table2Ctx(context.Background(), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	gs := rows[0]
	// The stencil statement lowers to 8 additions and 1 multiply. Group
	// the analysis by source statement and find it.
	groups := gs.Report.GroupByStatement()
	var found bool
	for _, grp := range groups {
		adds := 0
		vecAdds := 0
		for _, ir := range grp.Instrs {
			if strings.Contains(ir.Text, "add.f64") {
				adds++
				// Substantially vectorizable: a majority of the add's
				// instances sit in unit-stride groups. (The chained adds
				// keep a 2-instance boundary residue from wavefront
				// sorting, which the majority filter ignores.)
				if ir.Unit.VecOps > ir.Instances/2 {
					vecAdds++
				}
			}
		}
		if adds == 8 {
			found = true
			if vecAdds != 2 {
				t.Errorf("vectorizable additions = %d of %d, paper says 2 of 8", vecAdds, adds)
			}
		}
	}
	if !found {
		t.Fatal("no statement with 8 additions found in the Gauss-Seidel report")
	}
}

package core_test

// Analyze-level differential testing of the fused tiled kernel: for random
// programs, reports from the fused path (every tile width × worker count)
// must be byte-identical to the legacy per-candidate kernel (WithPerCandidate,
// Workers: 1) — including under reduction relaxation, where the fused path
// precomputes every candidate's cuts in one pass.

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"github.com/example/vectrace/internal/core"
	"github.com/example/vectrace/internal/ddg"
	"github.com/example/vectrace/internal/pipeline"
)

// genFusedProgram emits a random MiniC program mixing the shapes that
// stress the kernel: streaming statements, ±1-offset recurrences, scalar
// reductions, and conditional stores — enough distinct FP instructions to
// span several tiles at small widths.
func genFusedProgram(seed int64) string {
	rng := rand.New(rand.NewSource(seed))
	n := 10 + rng.Intn(8)
	var b strings.Builder
	arrays := []string{"A", "B", "C"}
	for _, a := range arrays {
		fmt.Fprintf(&b, "double %s[%d];\n", a, n)
	}
	b.WriteString("double s;\n\nvoid main() {\n  int i;\n")
	fmt.Fprintf(&b, "  s = 0.25;\n  for (i = 0; i < %d; i++) {\n", n)
	for _, a := range arrays {
		fmt.Fprintf(&b, "    %s[i] = 0.5 + 0.125 * i;\n", a)
	}
	b.WriteString("  }\n")
	stmts := 2 + rng.Intn(6)
	for k := 0; k < stmts; k++ {
		fmt.Fprintf(&b, "  for (i = 1; i < %d; i++) {\n", n-1)
		dst := arrays[rng.Intn(len(arrays))]
		src := arrays[rng.Intn(len(arrays))]
		c := 0.1 + rng.Float64()
		switch rng.Intn(4) {
		case 0: // streaming
			fmt.Fprintf(&b, "    %s[i] = %s[i] * %.3f + %s[i - 1];\n", dst, src, c, src)
		case 1: // recurrence
			fmt.Fprintf(&b, "    %s[i] = %s[i - 1] * %.3f + %s[i];\n", dst, dst, c, src)
		case 2: // reduction
			fmt.Fprintf(&b, "    s = s + %s[i] * %.3f;\n", src, c)
		case 3: // conditional store
			fmt.Fprintf(&b, "    if (%s[i] > %.3f) { %s[i] = %s[i + 1] + %.3f; }\n", src, c, dst, src, c)
		}
		b.WriteString("  }\n")
	}
	b.WriteString("  print(s);\n")
	for _, a := range arrays {
		fmt.Fprintf(&b, "  print(%s[2]);\n", a)
	}
	b.WriteString("}\n")
	return b.String()
}

// fusedGraph compiles, traces, and builds the DDG of one generated program.
func fusedGraph(t *testing.T, seed int64) (*ddg.Graph, string) {
	t.Helper()
	src := genFusedProgram(seed)
	_, _, tr, err := pipeline.CompileAndTrace(fmt.Sprintf("fused%d.c", seed), src)
	if err != nil {
		t.Fatalf("pipeline failed:\n%s\nerror: %v", src, err)
	}
	g, err := ddg.Build(tr)
	if err != nil {
		t.Fatalf("DDG: %v", err)
	}
	return g, src
}

// TestFusedMatchesOracleRandomPrograms is the central differential test:
// random programs × tile widths {1, 2, 7, 64} × worker counts
// {1, 4, GOMAXPROCS} × both reduction modes, all against the per-candidate
// oracle.
func TestFusedMatchesOracleRandomPrograms(t *testing.T) {
	tileSizes := []int{1, 2, 7, 64}
	workerCounts := []int{1, 4, runtime.GOMAXPROCS(0)}
	for seed := int64(0); seed < 15; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			g, src := fusedGraph(t, seed)
			for _, relax := range []bool{false, true} {
				oracle := core.Analyze(g, core.WithPerCandidate(core.Options{Workers: 1, RelaxReductions: relax}))
				for _, ts := range tileSizes {
					for _, w := range workerCounts {
						got := core.Analyze(g, core.WithTileSize(core.Options{Workers: w, RelaxReductions: relax}, ts))
						if !reflect.DeepEqual(oracle, got) {
							t.Fatalf("relax=%v tile=%d workers=%d: fused report differs from oracle\nprogram:\n%s\noracle: %+v\nfused:  %+v",
								relax, ts, w, src, oracle, got)
						}
					}
				}
				// Automatic tile width too.
				if got := core.Analyze(g, core.Options{RelaxReductions: relax}); !reflect.DeepEqual(oracle, got) {
					t.Fatalf("relax=%v auto tile: fused report differs from oracle", relax)
				}
			}
		})
	}
}

// TestFusedReductionRelaxationRegression pins the §4.1 reduction extension
// under fusion on a dot-product kernel: the fused relaxed report must equal
// the oracle's, the reduction must be detected, and relaxation must turn
// the serial chain into vectorizable work exactly as the oracle says.
func TestFusedReductionRelaxationRegression(t *testing.T) {
	src := `
double a[64]; double b[64]; double s;
void main() {
  int i;
  for (i = 0; i < 64; i++) { a[i] = 0.5 * i; b[i] = 0.25 * i; }
  for (i = 0; i < 64; i++) { s = s + a[i] * b[i]; }
  print(s);
}`
	_, _, tr, err := pipeline.CompileAndTrace("dot.c", src)
	if err != nil {
		t.Fatal(err)
	}
	g, err := ddg.Build(tr)
	if err != nil {
		t.Fatal(err)
	}
	for _, relax := range []bool{false, true} {
		oracle := core.Analyze(g, core.WithPerCandidate(core.Options{Workers: 1, RelaxReductions: relax}))
		for _, ts := range []int{1, 2, 7, 64} {
			got := core.Analyze(g, core.WithTileSize(core.Options{Workers: 4, RelaxReductions: relax}, ts))
			if !reflect.DeepEqual(oracle, got) {
				t.Fatalf("relax=%v tile=%d: fused differs from oracle", relax, ts)
			}
		}
	}
	// The accumulating add must be flagged as a reduction by the fused
	// detector, and relaxing must strictly increase unit-stride potential.
	base := core.Analyze(g, core.Options{})
	relaxed := core.Analyze(g, core.Options{RelaxReductions: true})
	foundReduction := false
	for _, ir := range base.PerInstr {
		if ir.IsReduction {
			foundReduction = true
		}
	}
	if !foundReduction {
		t.Fatal("fused path lost the reduction flag")
	}
	if relaxed.UnitVecOpsPct <= base.UnitVecOpsPct {
		t.Fatalf("relaxation did not increase unit-stride potential: %.1f%% -> %.1f%%",
			base.UnitVecOpsPct, relaxed.UnitVecOpsPct)
	}
}

// TestFusedTileWidthResolution pins the automatic tile-width policy.
func TestFusedTileWidthResolution(t *testing.T) {
	g, _ := fusedGraph(t, 1)
	// Explicit sizes pass through Analyze unchanged (behavioral check:
	// every explicit size equals the oracle — covered above — so here only
	// sanity-check extremes do not crash on tiny graphs).
	for _, ts := range []int{1, 3, 1000} {
		if rep := core.Analyze(g, core.WithTileSize(core.Options{}, ts)); rep.TotalNodes != g.NumNodes() {
			t.Fatalf("tile=%d: bad report", ts)
		}
	}
}

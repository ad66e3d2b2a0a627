package pipeline_test

import (
	"context"
	"strings"
	"testing"

	"github.com/example/vectrace/internal/core"
	"github.com/example/vectrace/internal/ddg"
	"github.com/example/vectrace/internal/pipeline"
	"github.com/example/vectrace/internal/reference"
	"github.com/example/vectrace/internal/testprog"
)

func TestCompileErrors(t *testing.T) {
	cases := []struct {
		name, src, want string
	}{
		{"parse", "void main( {}", "parse:"},
		{"check", "void main() { undefined_var = 1; }", "check:"},
		{"lower", "int g = 1; int h = g; void main() { }", "lower:"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := pipeline.Compile("t.c", c.src)
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("error = %v, want stage prefix %q", err, c.want)
			}
		})
	}
}

func TestLoopRegionErrors(t *testing.T) {
	src := `
double g;
void main() {
  int i;
  for (i = 0; i < 3; i++) { g = g + 1.0; }
}
`
	mod, err := pipeline.Compile("t.c", src)
	if err != nil {
		t.Fatal(err)
	}
	region := func(line, idx int) error {
		_, err := pipeline.AnalyzeSourceCtx(context.Background(), "t.c", src, line, idx, ddg.Options{}, core.Options{}, core.Budget{})
		_, _, kerr := pipeline.AnalyzeKumarCtx(context.Background(), mod, nil, line, idx, ddg.Options{}, core.Options{})
		if (err == nil) != (kerr == nil) || err != nil && err.Error() != kerr.Error() {
			t.Errorf("line %d region %d: analysis error %v, baseline-path error %v", line, idx, err, kerr)
		}
		return err
	}
	if err := region(999, 0); err == nil || !strings.Contains(err.Error(), "no loop on line") {
		t.Errorf("missing-line error = %v", err)
	}
	if err := region(5, 7); err == nil || !strings.Contains(err.Error(), "dynamic regions") {
		t.Errorf("bad-instance error = %v", err)
	}
	if err := region(5, 0); err != nil {
		t.Errorf("valid region: %v", err)
	}
}

// TestCallHeavyLoopAnalysis exercises the paper's §4.2 motivation: "some of
// the code structures involve multiple levels of function calls and the
// output from the tool is valuable input to the expert". The hot loop's
// arithmetic hides two call levels down; the trace-based analysis sees
// through the calls and finds the full vectorization potential — something
// a "quick scan of the code" cannot.
func TestCallHeavyLoopAnalysis(t *testing.T) {
	src := `
double a[64];
double b[64];
double c[64];

double combine(double x, double y) {
  return x * 0.5 + y * 0.25;
}

double kernel2(double x, double y) {
  return combine(x, y) + combine(y, x);
}

void main() {
  int i;
  for (i = 0; i < 64; i++) {      /* init */
    a[i] = 0.1 * i;
    b[i] = 1.0 - 0.01 * i;
  }
  for (i = 0; i < 64; i++) {      /* hot */
    c[i] = kernel2(a[i], b[i]);
  }
  print(c[63]);
}
`
	mod, _, tr, err := testprog.CompileAndTrace("calls.c", src)
	if err != nil {
		t.Fatal(err)
	}
	// Line of the hot loop.
	var hotLine int
	for n, l := range strings.Split(src, "\n") {
		if strings.Contains(l, "/* hot */") {
			hotLine = n + 1
		}
	}
	region, err := testprog.LoopRegion(tr, hotLine, 0)
	if err != nil {
		t.Fatal(err)
	}
	g, err := reference.Build(region)
	if err != nil {
		t.Fatal(err)
	}
	rep := mustAnalyze(t, g, core.Options{})
	// Per call: combine runs twice (2 muls + 1 add each... plus the sum):
	// all FP work lives in the callees, executed 64 independent times.
	if rep.TotalCandidateOps < 64*6 {
		t.Fatalf("candidate ops = %d, want the callees' work included", rep.TotalCandidateOps)
	}
	if rep.AvgConcurrency < 32 {
		t.Fatalf("avg concurrency = %.1f, want the cross-iteration independence visible through calls",
			rep.AvgConcurrency)
	}
	// The operands arrive through parameter registers, not loads, so the
	// potential shows as zero-stride (register-resident) unit groups.
	if rep.UnitVecOpsPct < 90 {
		t.Fatalf("unit vec ops = %.1f%%, want ~100%% through two call levels", rep.UnitVecOpsPct)
	}
	_ = mod
}

func TestRunMissingMain(t *testing.T) {
	mod, err := pipeline.Compile("t.c", "void notmain() { }")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pipeline.Run(mod, false); err == nil {
		t.Fatal("expected missing-main error")
	}
}

func TestInvalidMemoryAccess(t *testing.T) {
	// Dereferencing a null pointer traps with a helpful message.
	src := `
void main() {
  double *p;
  print(*p);
}
`
	mod, err := pipeline.Compile("t.c", src)
	if err != nil {
		t.Fatal(err)
	}
	_, err = pipeline.Run(mod, false)
	if err == nil || !strings.Contains(err.Error(), "invalid address") {
		t.Fatalf("error = %v, want invalid address", err)
	}
}

func TestOutOfBoundsPastArena(t *testing.T) {
	src := `
double A[4];
void main() {
  double *p;
  p = A + 100000000;
  *p = 1.0;
}
`
	mod, err := pipeline.Compile("t.c", src)
	if err != nil {
		t.Fatal(err)
	}
	_, err = pipeline.Run(mod, false)
	if err == nil || !strings.Contains(err.Error(), "invalid address") {
		t.Fatalf("error = %v, want invalid address", err)
	}
}

// mustAnalyze runs the graph reference, failing the test on error.
func mustAnalyze(tb testing.TB, g *reference.Graph, opts core.Options) *core.Report {
	tb.Helper()
	rep, err := reference.AnalyzeCtx(context.Background(), g, opts)
	if err != nil {
		tb.Fatal(err)
	}
	return rep
}

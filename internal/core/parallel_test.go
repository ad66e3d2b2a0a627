package core_test

// Tests for the concurrent analysis scheduler: ParallelFor mechanics,
// worker-count resolution, and the determinism contract — Analyze must
// produce byte-identical reports for every worker count, with Workers=1
// (the plain sequential loop) as the oracle.

import (
	"context"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"

	"github.com/example/vectrace/internal/core"
	"github.com/example/vectrace/internal/reference"
	"github.com/example/vectrace/internal/testprog"
)

func TestWorkerCount(t *testing.T) {
	if got := (core.Options{Workers: 3}).WorkerCount(); got != 3 {
		t.Errorf("Workers=3 resolved to %d", got)
	}
	want := runtime.GOMAXPROCS(0)
	if got := (core.Options{}).WorkerCount(); got != want {
		t.Errorf("Workers=0 resolved to %d, want GOMAXPROCS=%d", got, want)
	}
	if got := (core.Options{Workers: -2}).WorkerCount(); got != want {
		t.Errorf("Workers=-2 resolved to %d, want GOMAXPROCS=%d", got, want)
	}
}

func TestParallelForCoversAllIndices(t *testing.T) {
	for _, tc := range []struct{ n, workers int }{
		{0, 4}, {1, 4}, {5, 1}, {5, 0}, {5, 8}, {100, 4}, {7, 7},
	} {
		hits := make([]atomic.Int32, max(tc.n, 1))
		if err := core.ParallelFor(nil, tc.n, tc.workers, func(i int) error {
			hits[i].Add(1)
			return nil
		}); err != nil {
			t.Fatalf("n=%d workers=%d: %v", tc.n, tc.workers, err)
		}
		for i := 0; i < tc.n; i++ {
			if got := hits[i].Load(); got != 1 {
				t.Errorf("n=%d workers=%d: index %d ran %d times", tc.n, tc.workers, i, got)
			}
		}
		if tc.n == 0 && hits[0].Load() != 0 {
			t.Errorf("n=0: body ran")
		}
	}
}

// buildKernelGraph compiles and traces a small source and returns its DDG.
func buildKernelGraph(t *testing.T, src string) *reference.Graph {
	t.Helper()
	_, _, tr, err := testprog.CompileAndTrace("k.c", src)
	if err != nil {
		t.Fatal(err)
	}
	g, err := reference.Build(tr)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// parallelTestSources cover the analysis shapes that matter: unit-stride
// streams, a recurrence, a reduction, and a strided (column-major) walk.
var parallelTestSources = []string{
	`
double a[64]; double b[64]; double s;
void main() {
  int i;
  for (i = 0; i < 64; i++) { a[i] = 0.5 * i; }
  for (i = 1; i < 64; i++) { b[i] = b[i - 1] * 0.5 + a[i]; }
  for (i = 0; i < 64; i++) { s = s + b[i]; }
  print(s);
}`,
	`
double A[16][16]; double s;
void main() {
  int i; int j;
  for (i = 0; i < 16; i++) { for (j = 0; j < 16; j++) { A[i][j] = 0.01 * (i + j); } }
  for (j = 0; j < 16; j++) { for (i = 0; i < 16; i++) { s = s + A[i][j] * 2.0; } }
  print(s);
}`,
}

// TestAnalyzeDeterministic pins the scheduler's central contract: the report
// is identical — field for field, including per-instruction ordering — for
// every worker count and both option modes.
func TestAnalyzeDeterministic(t *testing.T) {
	for si, src := range parallelTestSources {
		g := buildKernelGraph(t, src)
		for _, relax := range []bool{false, true} {
			seq := mustAnalyze(t, g, core.Options{Workers: 1, RelaxReductions: relax})
			for _, w := range []int{0, 2, 3, 4, 8} {
				par := mustAnalyze(t, g, core.Options{Workers: w, RelaxReductions: relax})
				if !reflect.DeepEqual(seq, par) {
					t.Errorf("source %d relax=%v: Workers=%d report differs from sequential\nseq: %+v\npar: %+v",
						si, relax, w, seq, par)
				}
			}
		}
	}
}

// TestAnalyzeInstrMatchesAnalyze checks the single-instruction entry point
// against the fanned-out pipeline, entry by entry.
func TestAnalyzeInstrMatchesAnalyze(t *testing.T) {
	g := buildKernelGraph(t, parallelTestSources[0])
	rep := mustAnalyze(t, g, core.Options{Workers: 4})
	if len(rep.PerInstr) == 0 {
		t.Fatal("no candidates analyzed")
	}
	for _, want := range rep.PerInstr {
		got := reference.AnalyzeInstr(g, want.ID, core.Options{})
		if !reflect.DeepEqual(got, want) {
			t.Errorf("instr %d: AnalyzeInstr = %+v, Analyze entry = %+v", want.ID, got, want)
		}
	}
}

// TestAnalyzeRepeatedReuse runs the reference analysis many times on the
// same graph, which shares its lazily built views across calls and
// workers; any stale-state bug shows up as a diverging report.
func TestAnalyzeRepeatedReuse(t *testing.T) {
	g := buildKernelGraph(t, parallelTestSources[1])
	base := mustAnalyze(t, g, core.Options{Workers: 1})
	for round := 0; round < 10; round++ {
		w := 1 + round%4
		if got := mustAnalyze(t, g, core.Options{Workers: w}); !reflect.DeepEqual(base, got) {
			t.Fatalf("round %d (workers=%d): report diverged", round, w)
		}
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

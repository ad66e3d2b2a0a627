package core_test

import (
	"context"
	"testing"

	"github.com/example/vectrace/internal/core"
	"github.com/example/vectrace/internal/kernels"
	"github.com/example/vectrace/internal/testprog"
	"github.com/example/vectrace/internal/trace"
)

func traceOf(t *testing.T, name, src string) *trace.Trace {
	t.Helper()
	_, _, tr, err := testprog.CompileAndTrace(name, src)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// regularity counts the loop's control signatures over every region of tr.
func regularity(t *testing.T, tr *trace.Trace, loopID int) core.Regularity {
	t.Helper()
	c := core.NewRegularityCounter(tr.Module, loopID)
	if _, err := trace.FeedRegions(context.Background(), tr.Module, loopID, -1, &trace.SliceSource{Events: tr.Events}, c.Sink); err != nil {
		t.Fatal(err)
	}
	return c.Result()
}

func TestRegularityStreamingLoop(t *testing.T) {
	tr := traceOf(t, "stream.c", `
double a[64];
double b[64];
void main() {
  int i;
  for (i = 0; i < 64; i++) { a[i] = 0.5 * i; }
  for (i = 0; i < 64; i++) { b[i] = 2.0 * a[i]; }
  print(b[63]);
}
`)
	r := regularity(t, tr, 1)
	if r.Iterations != 64 {
		t.Fatalf("iterations = %d, want 64", r.Iterations)
	}
	if r.DistinctShapes != 1 || r.ModalFraction != 1.0 {
		t.Fatalf("streaming loop should be perfectly regular: %+v", r)
	}
	if !r.Realizable() {
		t.Error("regular loop should be flagged realizable")
	}
}

func TestRegularityBranchyLoop(t *testing.T) {
	// Half the iterations take the then-branch: two signatures, modal 0.5.
	tr := traceOf(t, "branchy.c", `
double a[64];
double s;
void main() {
  int i;
  for (i = 0; i < 64; i++) { a[i] = 0.5 * i; }
  for (i = 0; i < 64; i++) {
    if (i % 2 == 0) {
      s = s + a[i];
    } else {
      s = s - a[i] * 2.0;
    }
  }
  print(s);
}
`)
	r := regularity(t, tr, 1)
	if r.DistinctShapes != 2 {
		t.Fatalf("distinct shapes = %d, want 2", r.DistinctShapes)
	}
	if r.ModalFraction != 0.5 {
		t.Fatalf("modal fraction = %v, want 0.5", r.ModalFraction)
	}
}

func TestRegularityNestedDataDependentTrip(t *testing.T) {
	// An inner loop whose trip count varies per outer iteration makes the
	// outer iterations' signatures diverge — worklist-style irregularity.
	tr := traceOf(t, "worklist.c", `
double s;
void main() {
  int i;
  int j;
  int work;
  for (i = 0; i < 32; i++) {
    work = (i * 13) % 7;
    for (j = 0; j < work; j++) {
      s = s + 0.5;
    }
  }
  print(s);
}
`)
	r := regularity(t, tr, 0)
	if r.DistinctShapes < 5 {
		t.Fatalf("distinct shapes = %d, want the 7 trip-count variants", r.DistinctShapes)
	}
	if r.Realizable() {
		t.Errorf("irregular loop flagged realizable: %+v", r)
	}
}

// TestRegularityCaseStudies reproduces the §4.4 contrast the future-work
// paragraph draws: the PDE solver's interior blocks are perfectly
// structured (realizable by the hoisting transformation), while the
// povray-style worklist scatters.
func TestRegularityCaseStudies(t *testing.T) {
	// PDE: the per-cell loop inside an interior block runs the else branch
	// every time; in boundary blocks the signature mixes. Measured over
	// all blocks the modal share stays high — and the transformed version
	// splits it into a perfectly regular interior kernel.
	pde := kernels.PDESolverTransformed(8, 4)
	tr := traceOf(t, pde.Name+".c", pde.Source)
	mod := tr.Module
	intLoop := mod.LoopByLine(pde.LineOf("@int-i"))
	if intLoop == nil {
		t.Fatal("no interior loop")
	}
	r := regularity(t, tr, intLoop.ID)
	if r.ModalFraction != 1.0 {
		t.Errorf("interior PDE loop regularity = %v, want 1.0", r.ModalFraction)
	}

	// povray bbox worklist: conditional hits make iterations diverge.
	for _, b := range kernels.SPEC() {
		if b.Name != "453.povray" || b.Kernel.Name != "453.povray" {
			continue
		}
		tr := traceOf(t, b.Kernel.Name+".c", b.Kernel.Source)
		lm := tr.Module.LoopByLine(b.Kernel.LineOf("@hot"))
		r := regularity(t, tr, lm.ID)
		if r.DistinctShapes < 2 {
			t.Errorf("povray loop should have mixed signatures: %+v", r)
		}
	}
}

func TestRegularityEmptyLoop(t *testing.T) {
	tr := traceOf(t, "empty.c", `
double g;
void main() {
  int i;
  for (i = 0; i < 0; i++) { g = g + 1.0; }
  print(g);
}
`)
	r := regularity(t, tr, 0)
	if r.Iterations != 0 || r.ModalFraction != 0 {
		t.Fatalf("zero-trip loop regularity = %+v", r)
	}
}

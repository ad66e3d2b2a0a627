package core_test

import (
	"math"
	"testing"

	"github.com/example/vectrace/internal/baseline"
	"github.com/example/vectrace/internal/core"
	"github.com/example/vectrace/internal/ir"
	"github.com/example/vectrace/internal/kernels"
	"github.com/example/vectrace/internal/reference"
	"github.com/example/vectrace/internal/testprog"
	"github.com/example/vectrace/internal/trace"
)

// buildGraph compiles and traces a kernel and returns the whole-program DDG.
func buildGraph(t *testing.T, k kernels.Kernel) (*reference.Graph, *trace.Trace) {
	t.Helper()
	mod, _, tr, err := testprog.CompileAndTrace(k.Name+".c", k.Source)
	if err != nil {
		t.Fatalf("compile+trace %s: %v", k.Name, err)
	}
	if mod.NumInstrs == 0 {
		t.Fatalf("%s: empty module", k.Name)
	}
	g, err := reference.Build(tr)
	if err != nil {
		t.Fatalf("build DDG: %v", err)
	}
	if err := g.CheckTopological(); err != nil {
		t.Fatalf("topological check: %v", err)
	}
	return g, tr
}

// candidateAt returns the unique candidate instruction on the marked line.
func candidateAt(t *testing.T, g *reference.Graph, k kernels.Kernel, marker string, bin ir.BinOp) int32 {
	t.Helper()
	line := k.LineOf(marker)
	var found []int32
	for _, id := range g.Mod.CandidateIDs(-1) {
		in := g.Mod.InstrAt(id)
		if in.Pos.Line == line && in.Bin == bin {
			found = append(found, id)
		}
	}
	if len(found) != 1 {
		t.Fatalf("%s: %d candidate %v instructions on line %d (marker %s), want 1", k.Name, len(found), bin, line, marker)
	}
	return found[0]
}

// TestFigure1Partitions reproduces Figure 1: Algorithm 1 discovers N-1
// partitions of size N for statement S2 of Listing 1, while Kumar-style
// critical-path partitioning fragments the same instances into more, smaller
// partitions.
func TestFigure1Partitions(t *testing.T) {
	const n = 16
	k := kernels.Listing1(n)
	g, tr := buildGraph(t, k)
	s2 := candidateAt(t, g, k, "@S2", ir.MulOp)

	parts := reference.Partitions(g, s2, core.Options{})
	if len(parts) != n-1 {
		t.Fatalf("S2 partitions = %d, want %d", len(parts), n-1)
	}
	for _, p := range parts {
		if len(p.Nodes) != n {
			t.Fatalf("S2 partition at ts=%d has %d members, want %d", p.Timestamp, len(p.Nodes), n)
		}
	}

	// Properties 3.1: independence and earliest scheduling.
	ts := reference.Timestamps(g, s2, core.Options{})
	if err := reference.VerifyIndependence(g, s2, ts); err != nil {
		t.Fatalf("independence: %v", err)
	}
	if err := reference.VerifyEarliest(g, s2, ts); err != nil {
		t.Fatalf("earliest: %v", err)
	}

	// Kumar partitions the same instances by whole-graph timestamps: more
	// partitions, hence smaller average size (the paper's "2(N-1) versus
	// N-1" observation, §2.1).
	kumar := baseline.NewKumar(tr.Module)
	kparts := map[int32]bool{}
	for _, ev := range tr.Events {
		ts, err := kumar.Feed(ev.ID, ev.Addr)
		if err != nil {
			t.Fatal(err)
		}
		if ev.ID == s2 {
			kparts[ts] = true
		}
	}
	if len(kparts) <= len(parts) {
		t.Fatalf("Kumar partitions = %d, want more than Algorithm 1's %d", len(kparts), len(parts))
	}

	// S1 is a serial chain: N-1 singleton partitions.
	s1 := candidateAt(t, g, k, "@S1", ir.MulOp)
	s1parts := reference.Partitions(g, s1, core.Options{})
	if len(s1parts) != n-1 {
		t.Fatalf("S1 partitions = %d, want %d", len(s1parts), n-1)
	}
	for _, p := range s1parts {
		if len(p.Nodes) != 1 {
			t.Fatalf("S1 partition size = %d, want 1 (serial recurrence)", len(p.Nodes))
		}
	}
}

// TestFigure1UnitStride checks §2.2/§3.2 on Listing 1: within each S2
// partition the tuples (B[j][i], B[j-1][i], A[i]) advance with unit stride,
// so every partition becomes one vector-sized subpartition.
func TestFigure1UnitStride(t *testing.T) {
	const n = 16
	k := kernels.Listing1(n)
	g, _ := buildGraph(t, k)
	s2 := candidateAt(t, g, k, "@S2", ir.MulOp)

	rep := reference.AnalyzeInstr(g, s2, core.Options{})
	if rep.Instances != n*(n-1) {
		t.Fatalf("S2 instances = %d, want %d", rep.Instances, n*(n-1))
	}
	if rep.Unit.VecOps != n*(n-1) {
		t.Fatalf("S2 unit-stride vec ops = %d, want %d (all instances)", rep.Unit.VecOps, n*(n-1))
	}
	if got := rep.Unit.AvgVecSize(); math.Abs(got-float64(n)) > 1e-9 {
		t.Fatalf("S2 avg vec size = %v, want %d", got, n)
	}
	if rep.NonUnit.VecOps != 0 {
		t.Fatalf("S2 non-unit vec ops = %d, want 0", rep.NonUnit.VecOps)
	}

	// Subpartition stride uniformity (invariant 4).
	parts := reference.Partitions(g, s2, core.Options{})
	for i := range parts {
		for _, sp := range reference.UnitStrideSubpartitions(g, &parts[i], 8) {
			if err := reference.VerifySubpartitionStrides(g, &sp); err != nil {
				t.Fatalf("partition %d: %v", i, err)
			}
		}
	}
}

// TestFigure2Partitions reproduces Figure 2: the cross-statement
// loop-carried dependence (S2→S1) hides the parallelism from loop-level
// analysis, but Algorithm 1 places all instances of S1 in one partition and
// all instances of S2 in another.
func TestFigure2Partitions(t *testing.T) {
	const n = 16
	k := kernels.Listing2(n)
	g, tr := buildGraph(t, k)
	s1 := candidateAt(t, g, k, "@S1", ir.MulOp)
	s2 := candidateAt(t, g, k, "@S2", ir.MulOp)

	for name, id := range map[string]int32{"S1": s1, "S2": s2} {
		parts := reference.Partitions(g, id, core.Options{})
		if len(parts) != 1 {
			t.Fatalf("%s partitions = %d, want 1 (fully parallel)", name, len(parts))
		}
		if len(parts[0].Nodes) != n-1 {
			t.Fatalf("%s partition size = %d, want %d", name, len(parts[0].Nodes), n-1)
		}
		rep := reference.AnalyzeInstr(g, id, core.Options{})
		if rep.Unit.VecOps != n-1 {
			t.Fatalf("%s unit vec ops = %d, want %d", name, rep.Unit.VecOps, n-1)
		}
	}

	// The Larus-style loop-level model on the same loop serializes the
	// S2→S1 staircase: its parallel span grows with N instead of staying
	// near the per-iteration cost, so uncovered parallelism stays low.
	lm := tr.Module.LoopByLine(k.LineOf("@main-loop"))
	if lm == nil {
		t.Fatal("no loop metadata for @main-loop")
	}
	regions := tr.Regions(lm.ID)
	if len(regions) != 1 {
		t.Fatalf("main loop regions = %d, want 1", len(regions))
	}
	larus := baseline.NewLarus(tr.Module, lm.ID)
	iterations, sequential := 0, 0
	for _, ev := range tr.RegionEvents(regions[0]) {
		finish, err := larus.Feed(ev.ID, ev.Addr)
		if err != nil {
			t.Fatal(err)
		}
		if in := tr.Module.InstrAt(ev.ID); in.Op == ir.OpLoopIter && int(in.Loop) == lm.ID {
			iterations++
		}
		if finish > 0 {
			sequential++
		}
	}
	if iterations != n-1 {
		t.Fatalf("Larus iterations = %d, want %d", iterations, n-1)
	}
	if sp := float64(sequential) / float64(larus.CriticalPath()); sp > 4 {
		t.Fatalf("Larus speedup = %.2f; expected the dependence staircase to cap it well below the available %d-way parallelism", sp, n-1)
	}
}

// TestKumarProfile sanity-checks the critical-path baseline on Listing 1:
// the serial S1 chain forces a critical path at least N-1 long.
func TestKumarProfile(t *testing.T) {
	const n = 16
	k := kernels.Listing1(n)
	g, tr := buildGraph(t, k)
	p := baseline.NewKumar(tr.Module)
	histogram := map[int32]int{}
	for _, ev := range tr.Events {
		ts, err := p.Feed(ev.ID, ev.Addr)
		if err != nil {
			t.Fatal(err)
		}
		histogram[ts]++
	}
	if p.CriticalPath() < int32(n-1) {
		t.Fatalf("critical path = %d, want >= %d (S1 chain)", p.CriticalPath(), n-1)
	}
	if len(histogram) != int(p.CriticalPath()) {
		t.Fatalf("%d distinct timestamps, want one per critical-path step (%d)", len(histogram), p.CriticalPath())
	}
	if g.NumNodes() != len(tr.Events) {
		t.Fatalf("graph has %d nodes for %d events", g.NumNodes(), len(tr.Events))
	}
	if p.AvgParallelism() <= 1 {
		t.Fatalf("avg parallelism = %v, want > 1", p.AvgParallelism())
	}
}

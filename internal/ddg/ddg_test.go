package ddg_test

import (
	"testing"

	"github.com/example/vectrace/internal/ddg"
	"github.com/example/vectrace/internal/ir"
	"github.com/example/vectrace/internal/reference"
	"github.com/example/vectrace/internal/testprog"
	"github.com/example/vectrace/internal/trace"
)

func buildFor(t *testing.T, src string) (*reference.Graph, *trace.Trace) {
	t.Helper()
	_, _, tr, err := testprog.CompileAndTrace("t.c", src)
	if err != nil {
		t.Fatal(err)
	}
	g, err := reference.Build(tr)
	if err != nil {
		t.Fatal(err)
	}
	return g, tr
}

// findNodes returns node indices whose static instruction satisfies pred.
func findNodes(g *reference.Graph, pred func(*ir.Instr) bool) []int32 {
	var out []int32
	for i := range g.Nodes {
		if pred(g.Mod.InstrAt(g.Nodes[i].Instr)) {
			out = append(out, int32(i))
		}
	}
	return out
}

// reaches reports whether there is a DDG path from a to b (a < b).
func reaches(g *reference.Graph, a, b int32) bool {
	seen := make(map[int32]bool)
	var stack []int32
	stack = append(stack, b)
	var preds []int32
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if n == a {
			return true
		}
		if seen[n] || n < a {
			continue
		}
		seen[n] = true
		preds = g.Preds(n, preds[:0])
		stack = append(stack, preds...)
	}
	return false
}

func TestRegisterDependences(t *testing.T) {
	// d = (a+b)*(a-b): the mul must depend on both the add and the sub.
	g, _ := buildFor(t, `
double ga;
double gb;
double gd;
void main() {
  gd = (ga + gb) * (ga - gb);
}
`)
	adds := findNodes(g, func(in *ir.Instr) bool { return in.Op == ir.OpBin && in.Bin == ir.AddOp && in.Type == ir.F64 })
	subs := findNodes(g, func(in *ir.Instr) bool { return in.Op == ir.OpBin && in.Bin == ir.SubOp && in.Type == ir.F64 })
	muls := findNodes(g, func(in *ir.Instr) bool { return in.Op == ir.OpBin && in.Bin == ir.MulOp && in.Type == ir.F64 })
	if len(adds) != 1 || len(subs) != 1 || len(muls) != 1 {
		t.Fatalf("ops: %d adds, %d subs, %d muls", len(adds), len(subs), len(muls))
	}
	var preds []int32
	preds = g.Preds(muls[0], preds)
	has := map[int32]bool{}
	for _, p := range preds {
		has[p] = true
	}
	if !has[adds[0]] || !has[subs[0]] {
		t.Fatalf("mul preds %v should include add %d and sub %d", preds, adds[0], subs[0])
	}
}

func TestMemoryFlowDependence(t *testing.T) {
	// Store then load of the same element creates a flow edge; the two
	// stores to distinct elements do not interfere.
	g, _ := buildFor(t, `
double A[4];
void main() {
  A[1] = 2.0;
  A[2] = 3.0;
  print(A[1] + A[2]);
}
`)
	stores := findNodes(g, func(in *ir.Instr) bool { return in.Op == ir.OpStore && in.Type == ir.F64 })
	loads := findNodes(g, func(in *ir.Instr) bool { return in.Op == ir.OpLoad && in.Type == ir.F64 })
	if len(stores) != 2 || len(loads) != 2 {
		t.Fatalf("stores=%d loads=%d", len(stores), len(loads))
	}
	// Each load's memory predecessor is the store at the same address.
	for _, l := range loads {
		var preds []int32
		preds = g.Preds(l, preds)
		found := false
		for _, p := range preds {
			if g.Mod.InstrAt(g.Nodes[p].Instr).Op == ir.OpStore && g.Nodes[p].Addr == g.Nodes[l].Addr {
				found = true
			}
		}
		if !found {
			t.Fatalf("load at %#x missing its producing store", g.Nodes[l].Addr)
		}
	}
}

func TestNoAntiOrOutputDependences(t *testing.T) {
	// read-then-write and write-then-write must NOT create edges in the
	// default (flow-only) graph, matching §3 of the paper.
	g, _ := buildFor(t, `
double a;
double b;
void main() {
  b = a;       // read a
  a = 2.0;     // anti-dependence on the read; output dep on a's init
  a = 3.0;
}
`)
	stores := findNodes(g, func(in *ir.Instr) bool { return in.Op == ir.OpStore && in.Type == ir.F64 })
	// The stores of constants have only their address-producer pred (no
	// value pred, no memory pred).
	for _, s := range stores[1:] {
		var preds []int32
		preds = g.Preds(s, preds)
		for _, p := range preds {
			op := g.Mod.InstrAt(g.Nodes[p].Instr).Op
			if op == ir.OpLoad || op == ir.OpStore {
				t.Fatalf("flow-only graph has anti/output edge from %s", op)
			}
		}
	}
}

func TestAntiOutputOption(t *testing.T) {
	_, _, tr, err := testprog.CompileAndTrace("t.c", `
double a;
double b;
void main() {
  b = a;
  a = 2.0;
  a = 3.0;
}
`)
	if err != nil {
		t.Fatal(err)
	}
	g, err := reference.BuildOpts(tr, ddg.Options{IncludeAntiOutput: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := g.CheckTopological(); err != nil {
		t.Fatalf("anti/output graph must stay topological: %v", err)
	}
	// Now the second store to a depends on the load of a (anti) and the
	// third on the second (output).
	stores := findNodes(g, func(in *ir.Instr) bool { return in.Op == ir.OpStore && in.Type == ir.F64 })
	foundAnti, foundOutput := false, false
	for _, s := range stores {
		var preds []int32
		preds = g.Preds(s, preds)
		for _, p := range preds {
			switch g.Mod.InstrAt(g.Nodes[p].Instr).Op {
			case ir.OpLoad:
				foundAnti = true
			case ir.OpStore:
				foundOutput = true
			}
		}
	}
	if !foundAnti || !foundOutput {
		t.Fatalf("anti=%v output=%v, want both", foundAnti, foundOutput)
	}
}

func TestCallReturnLinking(t *testing.T) {
	// The value returned by a callee flows to the caller's consumer
	// without a forward edge: the consumer depends on the producing node
	// inside the callee.
	g, _ := buildFor(t, `
double twice(double x) { return x + x; }
double g1;
void main() {
  g1 = twice(1.5) * 2.0;
}
`)
	if err := g.CheckTopological(); err != nil {
		t.Fatal(err)
	}
	adds := findNodes(g, func(in *ir.Instr) bool { return in.Op == ir.OpBin && in.Bin == ir.AddOp && in.Type == ir.F64 })
	muls := findNodes(g, func(in *ir.Instr) bool { return in.Op == ir.OpBin && in.Bin == ir.MulOp && in.Type == ir.F64 })
	if len(adds) != 1 || len(muls) != 1 {
		t.Fatalf("adds=%d muls=%d", len(adds), len(muls))
	}
	if !reaches(g, adds[0], muls[0]) {
		t.Fatal("caller's multiply must depend on the callee's add")
	}
}

func TestArgumentLinking(t *testing.T) {
	// A value computed in the caller and passed as an argument must reach
	// the callee's use of the parameter.
	g, _ := buildFor(t, `
double inc(double x) { return x + 1.0; }
double gv;
void main() {
  gv = inc(2.0 * 3.0);
}
`)
	muls := findNodes(g, func(in *ir.Instr) bool { return in.Op == ir.OpBin && in.Bin == ir.MulOp && in.Type == ir.F64 })
	adds := findNodes(g, func(in *ir.Instr) bool { return in.Op == ir.OpBin && in.Bin == ir.AddOp && in.Type == ir.F64 })
	if len(muls) != 1 || len(adds) != 1 {
		t.Fatalf("muls=%d adds=%d", len(muls), len(adds))
	}
	if !reaches(g, muls[0], adds[0]) {
		t.Fatal("callee's add must depend on the caller's multiply")
	}
}

func TestOperandProvenance(t *testing.T) {
	// c[i] = a[i] * b[i]: the mul's tuple must carry the two load
	// addresses and the store address.
	g, _ := buildFor(t, `
double a[4];
double b[4];
double c[4];
void main() {
  int i;
  for (i = 0; i < 4; i++) {
    c[i] = a[i] * b[i];
  }
}
`)
	muls := findNodes(g, func(in *ir.Instr) bool { return in.IsCandidate() && in.Bin == ir.MulOp })
	if len(muls) != 4 {
		t.Fatalf("muls = %d, want 4", len(muls))
	}
	for k, m := range muls {
		nd := &g.Nodes[m]
		if nd.OpAddr1 == 0 || nd.OpAddr2 == 0 {
			t.Fatalf("mul %d missing operand provenance: %+v", k, nd)
		}
		if nd.StoreAddr == 0 {
			t.Fatalf("mul %d missing result store address", k)
		}
		if k > 0 {
			prev := &g.Nodes[muls[k-1]]
			if nd.OpAddr1-prev.OpAddr1 != 8 || nd.OpAddr2-prev.OpAddr2 != 8 || nd.StoreAddr-prev.StoreAddr != 8 {
				t.Fatalf("tuple strides not 8: %+v vs %+v", prev, nd)
			}
		}
	}
}

func TestConstOperandHasZeroProvenance(t *testing.T) {
	g, _ := buildFor(t, `
double a[4];
double c[4];
void main() {
  int i;
  for (i = 0; i < 4; i++) {
    c[i] = a[i] * 2.0;
  }
}
`)
	muls := findNodes(g, func(in *ir.Instr) bool { return in.IsCandidate() && in.Bin == ir.MulOp })
	for _, m := range muls {
		nd := &g.Nodes[m]
		// One operand is a load (nonzero addr), the other is the constant
		// (the paper's "artificial address of zero").
		if (nd.OpAddr1 == 0) == (nd.OpAddr2 == 0) {
			t.Fatalf("expected exactly one zero provenance, got %+v", nd)
		}
	}
}

func TestCandidateHelpers(t *testing.T) {
	g, _ := buildFor(t, `
double s;
void main() {
  int i;
  for (i = 0; i < 5; i++) { s = s + 1.0; }
  s = s * 2.0;
}
`)
	inst := g.CandidateInstances()
	if len(inst) != 2 {
		t.Fatalf("candidate statics = %d, want 2 (add, mul)", len(inst))
	}
	total := 0
	for _, nodes := range inst {
		total += len(nodes)
	}
	if total != 6 || g.NumCandidateOps() != 6 {
		t.Fatalf("candidate ops = %d/%d, want 6", total, g.NumCandidateOps())
	}
}

func TestTopologicalInvariant(t *testing.T) {
	g, _ := buildFor(t, `
double A[16];
double f(double x) { return x * 0.5; }
void main() {
  int i;
  A[0] = 1.0;
  for (i = 1; i < 16; i++) {
    A[i] = f(A[i-1]) + 1.0;
  }
  print(A[15]);
}
`)
	if err := g.CheckTopological(); err != nil {
		t.Fatal(err)
	}
}

func TestRegionBuildStartsClean(t *testing.T) {
	// Building a DDG for a loop region must not blow up even though the
	// region references values produced before it.
	_, _, tr, err := testprog.CompileAndTrace("t.c", `
double A[8];
void main() {
  int i;
  double base;
  base = 10.0;
  for (i = 0; i < 8; i++) {
    A[i] = base + i;
  }
}
`)
	if err != nil {
		t.Fatal(err)
	}
	regions := tr.Regions(0)
	if len(regions) != 1 {
		t.Fatalf("regions = %d", len(regions))
	}
	g, err := reference.Build(tr.Slice(regions[0]))
	if err != nil {
		t.Fatal(err)
	}
	if err := g.CheckTopological(); err != nil {
		t.Fatal(err)
	}
	// The adds exist and have no dependence on anything before the region
	// other than through absent preds.
	adds := findNodes(g, func(in *ir.Instr) bool { return in.IsCandidate() && in.Bin == ir.AddOp })
	if len(adds) != 8 {
		t.Fatalf("adds in region = %d, want 8", len(adds))
	}
}

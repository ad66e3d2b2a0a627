package ddg_test

import (
	"testing"

	"github.com/example/vectrace/internal/core"
	"github.com/example/vectrace/internal/ddg"
	"github.com/example/vectrace/internal/reference"
	"github.com/example/vectrace/internal/testprog"
)

// countEdges sums flow-predecessor counts across the graph.
func countEdges(g *reference.Graph) int {
	n := 0
	var preds []int32
	for i := range g.Nodes {
		preds = g.Preds(int32(i), preds[:0])
		n += len(preds)
	}
	return n
}

// TestDependenceCategoryOptions verifies the paper's §3 claim that the DDG
// can be augmented with additional dependence categories "without having to
// modify in any way the subsequent graph analyses": the augmented graphs
// gain edges and stay topologically ordered, every analysis runs unchanged,
// and — because anti/output/control dependences constrain stores and
// branches, which sit downstream of the floating-point candidates — the
// candidate partitions themselves are unaffected in these kernels.
func TestDependenceCategoryOptions(t *testing.T) {
	src := `
double a[32];
double b[32];
void main() {
  int i;
  for (i = 0; i < 32; i++) { a[i] = 0.1 * i; }
  for (i = 0; i < 32; i++) { b[i] = 2.0 * a[i]; }
  for (i = 0; i < 31; i++) { a[i] = 0.5 * a[i + 1]; }
  print(b[31]);
  print(a[0]);
}
`
	_, _, tr, err := testprog.CompileAndTrace("t.c", src)
	if err != nil {
		t.Fatal(err)
	}
	flow, err := reference.Build(tr)
	if err != nil {
		t.Fatal(err)
	}
	withAO, err := reference.BuildOpts(tr, ddg.Options{IncludeAntiOutput: true})
	if err != nil {
		t.Fatal(err)
	}
	withCtl, err := reference.BuildOpts(tr, ddg.Options{IncludeControl: true})
	if err != nil {
		t.Fatal(err)
	}
	withAll, err := reference.BuildOpts(tr, ddg.Options{IncludeAntiOutput: true, IncludeControl: true})
	if err != nil {
		t.Fatal(err)
	}

	base := countEdges(flow)
	for name, g := range map[string]*reference.Graph{
		"anti/output": withAO, "control": withCtl, "all": withAll,
	} {
		if err := g.CheckTopological(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if countEdges(g) <= base {
			t.Errorf("%s: edge count %d should exceed flow-only %d", name, countEdges(g), base)
		}
	}
	if countEdges(withAll) <= countEdges(withAO) {
		t.Error("combined options should add the control edges on top")
	}

	// The candidate-level analysis runs unchanged on every graph and, for
	// these loops, produces identical partitions: the extra edges end at
	// stores and branches, not between candidate instances.
	for id := range flow.CandidateInstances() {
		want := len(reference.Partitions(flow, id, core.Options{}))
		for name, g := range map[string]*reference.Graph{
			"anti/output": withAO, "control": withCtl,
		} {
			if got := len(reference.Partitions(g, id, core.Options{})); got != want {
				t.Errorf("%s: instr %d partitions = %d, flow-only = %d", name, id, got, want)
			}
		}
	}

	// Whole-graph scheduling (Kumar) can only get longer as categories are
	// added.
	cpFlow := criticalPath(flow)
	for name, g := range map[string]*reference.Graph{
		"anti/output": withAO, "control": withCtl, "all": withAll,
	} {
		if cp := criticalPath(g); cp < cpFlow {
			t.Errorf("%s: critical path %d shorter than flow-only %d", name, cp, cpFlow)
		}
	}
}

// TestOutputDependenceChainsStores: repeated full-array sweeps create
// write-after-write chains on each element; with output dependences
// included, the Kumar schedule of the stores serializes across sweeps.
func TestOutputDependenceChainsStores(t *testing.T) {
	src := `
double a[16];
void main() {
  int t;
  int i;
  for (t = 0; t < 6; t++) {
    for (i = 0; i < 16; i++) {
      a[i] = 0.5 * t;    /* same elements overwritten every sweep */
    }
  }
  print(a[0]);
}
`
	_, _, tr, err := testprog.CompileAndTrace("t.c", src)
	if err != nil {
		t.Fatal(err)
	}
	flow, err := reference.Build(tr)
	if err != nil {
		t.Fatal(err)
	}
	withAO, err := reference.BuildOpts(tr, ddg.Options{IncludeAntiOutput: true})
	if err != nil {
		t.Fatal(err)
	}
	// Compare the Kumar finish time of the LAST store against the first:
	// under output dependences the same-element stores are at least 6 deep.
	tsFlow := kumarTimestamps(flow)
	tsAO := kumarTimestamps(withAO)
	var firstStore, lastStore int32 = -1, -1
	for i := range flow.Nodes {
		in := flow.Mod.InstrAt(flow.Nodes[i].Instr)
		if in.Op.String() == "store" && in.Type.IsFloat() {
			if firstStore == -1 {
				firstStore = int32(i)
			}
			lastStore = int32(i)
		}
	}
	if firstStore < 0 || lastStore <= firstStore {
		t.Fatal("stores not found")
	}
	depthFlow := tsFlow[lastStore] - tsFlow[firstStore]
	depthAO := tsAO[lastStore] - tsAO[firstStore]
	if depthAO <= depthFlow {
		t.Errorf("output deps should deepen the store schedule: flow %d, anti/output %d",
			depthFlow, depthAO)
	}
}

// kumarTimestamps schedules every node one step after the latest of its
// predecessors, whatever their dependence category.
func kumarTimestamps(g *reference.Graph) []int32 {
	ts := make([]int32, len(g.Nodes))
	var preds []int32
	for i := range g.Nodes {
		preds = g.Preds(int32(i), preds[:0])
		for _, p := range preds {
			ts[i] = max(ts[i], ts[p])
		}
		ts[i]++
	}
	return ts
}

// criticalPath is the largest Kumar timestamp of g.
func criticalPath(g *reference.Graph) int32 {
	var cp int32
	for _, t := range kumarTimestamps(g) {
		cp = max(cp, t)
	}
	return cp
}

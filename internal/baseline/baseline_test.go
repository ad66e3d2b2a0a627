package baseline_test

import (
	"testing"

	"github.com/example/vectrace/internal/baseline"
	"github.com/example/vectrace/internal/ir"
	"github.com/example/vectrace/internal/kernels"
	"github.com/example/vectrace/internal/reference"
	"github.com/example/vectrace/internal/testprog"
	"github.com/example/vectrace/internal/trace"
)

func buildGraph(t *testing.T, src string) (*reference.Graph, *trace.Trace) {
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

// times feeds events through s and returns each event's time.
func times(t *testing.T, s *baseline.Stream, events []trace.Event) []int32 {
	t.Helper()
	out := make([]int32, len(events))
	for i, ev := range events {
		var err error
		if out[i], err = s.Feed(ev.ID, ev.Addr); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

func TestKumarTimestampsMonotone(t *testing.T) {
	g, tr := buildGraph(t, `
double s;
void main() {
  int i;
  for (i = 0; i < 8; i++) { s = s + 1.0; }
}
`)
	ts := times(t, baseline.NewKumar(tr.Module), tr.Events)
	var preds []int32
	for i := range g.Nodes {
		preds = g.Preds(int32(i), preds[:0])
		for _, p := range preds {
			if ts[p] >= ts[i] {
				t.Fatalf("node %d (ts %d) does not come after pred %d (ts %d)", i, ts[i], p, ts[p])
			}
		}
		if ts[i] < 1 {
			t.Fatalf("timestamps start at 1, got %d", ts[i])
		}
	}
}

func TestKumarChainCriticalPath(t *testing.T) {
	// A pure accumulation chain of length N forces a critical path of at
	// least N (the adds serialize).
	g, tr := buildGraph(t, `
double s;
void main() {
  int i;
  for (i = 0; i < 32; i++) { s = s + 1.0; }
}
`)
	p := kumar(g)
	sum := 0
	for _, c := range p.Histogram {
		sum += c
	}
	if sum != g.NumNodes() {
		t.Fatalf("histogram sums to %d, want %d", sum, g.NumNodes())
	}
	s := baseline.NewKumar(tr.Module)
	times(t, s, tr.Events)
	if s.CriticalPath() < 32 {
		t.Fatalf("critical path = %d, want >= 32", s.CriticalPath())
	}
	if s.AvgParallelism() < 1 {
		t.Fatalf("avg parallelism = %v", s.AvgParallelism())
	}
}

func TestPartitionsByTimestampOrdering(t *testing.T) {
	g, _ := buildGraph(t, `
double A[8];
void main() {
  int i;
  for (i = 0; i < 8; i++) { A[i] = 1.0 + i; }
}
`)
	var addID int32 = -1
	for i := range g.Nodes {
		in := g.Mod.InstrAt(g.Nodes[i].Instr)
		if in.IsCandidate() && in.Bin == ir.AddOp {
			addID = g.Nodes[i].Instr
			break
		}
	}
	if addID < 0 {
		t.Fatal("no add candidate")
	}
	ts := kumarTimestamps(g)
	parts := partitionsByTimestamp(g, addID, ts)
	total := 0
	prevTS := int32(-1)
	for _, p := range parts {
		if len(p) == 0 {
			t.Fatal("empty partition")
		}
		total += len(p)
		cur := ts[p[0]]
		for _, n := range p {
			if ts[n] != cur {
				t.Fatal("partition mixes timestamps")
			}
		}
		if cur <= prevTS {
			t.Fatal("partitions not in increasing timestamp order")
		}
		prevTS = cur
	}
	if total != 8 {
		t.Fatalf("partition members = %d, want 8", total)
	}
}

// larusSummary is the loop-level model's summary of one loop region.
type larusSummary struct {
	// Iterations is the number of loop iterations observed.
	Iterations int
	// Span is the parallel execution time: max finish.
	Span int32
	// SequentialTime is the number of in-iteration operations (each costs
	// one step), so SequentialTime/Span is the loop-level parallelism.
	SequentialTime int64
}

// Speedup returns the loop-level parallelism uncovered by the model.
func (r larusSummary) Speedup() float64 {
	if r.Span == 0 {
		return 1
	}
	return float64(r.SequentialTime) / float64(r.Span)
}

// summarize derives the summary from a region's events and finish times.
func summarize(mod *ir.Module, loopID int, events []trace.Event, finish []int32) larusSummary {
	var r larusSummary
	for i, ev := range events {
		if in := mod.InstrAt(ev.ID); in.Op == ir.OpLoopIter && int(in.Loop) == loopID {
			r.Iterations++
		}
		if finish[i] > 0 {
			r.SequentialTime++
			r.Span = max(r.Span, finish[i])
		}
	}
	return r
}

// larusFor runs the loop-level model on the sole region of the loop.
func larusFor(t *testing.T, src string, loopID int) larusSummary {
	t.Helper()
	_, _, tr, err := testprog.CompileAndTrace("t.c", src)
	if err != nil {
		t.Fatal(err)
	}
	regions := tr.Regions(loopID)
	if len(regions) != 1 {
		t.Fatalf("regions = %d", len(regions))
	}
	events := tr.RegionEvents(regions[0])
	return summarize(tr.Module, loopID, events, times(t, baseline.NewLarus(tr.Module, loopID), events))
}

func TestLarusIndependentIterations(t *testing.T) {
	// A fully parallel loop: iterations overlap completely, so the span
	// is about one iteration's length and speedup ≈ iteration count.
	lr := larusFor(t, `
double A[16];
double B[16];
void main() {
  int i;
  for (i = 0; i < 16; i++) { B[i] = 2.0; }
  for (i = 0; i < 16; i++) { A[i] = B[i] * 3.0; }
}
`, 1)
	if lr.Iterations != 16 {
		t.Fatalf("iterations = %d, want 16", lr.Iterations)
	}
	if sp := lr.Speedup(); sp < 8 {
		t.Fatalf("speedup = %.1f, want near 16 for independent iterations", sp)
	}
}

func TestLarusSerialChain(t *testing.T) {
	// s += chain: every iteration waits for the previous one, so speedup
	// stays near 1.
	lr := larusFor(t, `
double s;
void main() {
  int i;
  for (i = 0; i < 16; i++) { s = s + 1.0; }
}
`, 0)
	if lr.Iterations != 16 {
		t.Fatalf("iterations = %d", lr.Iterations)
	}
	if sp := lr.Speedup(); sp > 3 {
		t.Fatalf("speedup = %.1f, want near 1 for a serial chain", sp)
	}
}

func TestLarusFinishRespectsDependences(t *testing.T) {
	_, _, tr, err := testprog.CompileAndTrace("t.c", kernels.Listing2(8).Source)
	if err != nil {
		t.Fatal(err)
	}
	k := kernels.Listing2(8)
	lm := tr.Module.LoopByLine(k.LineOf("@main-loop"))
	regions := tr.Regions(lm.ID)
	sub := tr.Slice(regions[0])
	g, err := reference.Build(sub)
	if err != nil {
		t.Fatal(err)
	}
	s := baseline.NewLarus(tr.Module, lm.ID)
	finish := times(t, s, sub.Events)
	var preds []int32
	for i := range g.Nodes {
		if finish[i] == 0 {
			continue
		}
		preds = g.Preds(int32(i), preds[:0])
		for _, p := range preds {
			if finish[p] > 0 && finish[p] >= finish[i] {
				t.Fatalf("node %d finishes at %d, before/with its pred %d at %d",
					i, finish[i], p, finish[p])
			}
		}
	}
	if lr := summarize(tr.Module, lm.ID, sub.Events, finish); lr.SequentialTime <= int64(lr.Span) {
		t.Fatalf("sequential time %d should exceed span %d", lr.SequentialTime, lr.Span)
	}
}

func TestKumarNeverBeatsAlgorithm1(t *testing.T) {
	// Property 3.2: Algorithm 1's average partition size is maximal among
	// dependence-respecting timestamp assignments; Kumar's assignment is
	// one such, so it can never produce fewer partitions.
	for _, k := range []kernels.Kernel{kernels.Listing1(12), kernels.Listing2(12), kernels.Listing3(8)} {
		_, _, tr, err := testprog.CompileAndTrace(k.Name+".c", k.Source)
		if err != nil {
			t.Fatal(err)
		}
		g, err := reference.Build(tr)
		if err != nil {
			t.Fatal(err)
		}
		kts := times(t, baseline.NewKumar(tr.Module), tr.Events)
		for id := range g.CandidateInstances() {
			kparts := partitionsByTimestamp(g, id, kts)
			aparts := corePartitions(g, id)
			if len(kparts) < len(aparts) {
				t.Fatalf("%s: instr %d: Kumar produced fewer partitions (%d) than Algorithm 1 (%d)",
					k.Name, id, len(kparts), len(aparts))
			}
		}
	}
}

// corePartitions avoids importing core in this package's public test API
// more than once.
func corePartitions(g *reference.Graph, id int32) [][]int32 {
	ts := algorithm1(g, id)
	byTS := map[int32][]int32{}
	for i := range g.Nodes {
		if g.Nodes[i].Instr == id {
			byTS[ts[i]] = append(byTS[ts[i]], int32(i))
		}
	}
	out := make([][]int32, 0, len(byTS))
	for _, v := range byTS {
		out = append(out, v)
	}
	return out
}

// algorithm1 is a reference reimplementation used only for the comparison
// property (deliberately independent of internal/core).
func algorithm1(g *reference.Graph, id int32) []int32 {
	ts := make([]int32, len(g.Nodes))
	var preds []int32
	for i := range g.Nodes {
		var max int32
		preds = g.Preds(int32(i), preds[:0])
		for _, p := range preds {
			if ts[p] > max {
				max = ts[p]
			}
		}
		if g.Nodes[i].Instr == id {
			max++
		}
		ts[i] = max
	}
	return ts
}

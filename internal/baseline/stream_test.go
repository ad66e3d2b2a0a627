package baseline_test

import (
	"fmt"
	"testing"

	"github.com/example/vectrace/internal/baseline"
	"github.com/example/vectrace/internal/core"
	"github.com/example/vectrace/internal/ddg"
	"github.com/example/vectrace/internal/kernels"
	"github.com/example/vectrace/internal/reference"
	"github.com/example/vectrace/internal/testprog"
	"github.com/example/vectrace/internal/trace"
)

// TestStreamMatchesGraph is the differential test of the graph-free
// baselines: over 15 random programs and all 38 Table 1–3 kernels, for the
// whole trace and for every region of each target loop, the streaming
// Kumar timestamps and Larus finish times equal the graph forms' at every
// event, as do the critical path, average parallelism and Larus span.
// The stream kernel's instance timestamps equal the graph's Algorithm-1
// Timestamps at every instance of every candidate.
func TestStreamMatchesGraph(t *testing.T) {
	ks := tableKernels()
	if len(ks) != 38 {
		t.Fatalf("%d Table 1–3 kernels, want 38", len(ks))
	}
	// Random programs and the call fixture carry no markers: every loop
	// is a target.
	for seed := int64(1); seed <= 15; seed++ {
		ks = append(ks, tableKernel{Kernel: kernels.Kernel{Name: fmt.Sprintf("rand%d", seed), Source: testprog.Random(seed)}})
	}
	ks = append(ks, tableKernel{Kernel: kernels.Kernel{Name: "calls", Source: callsProgram}})
	for _, k := range ks {
		mod, _, tr, err := testprog.CompileAndTrace(k.Name+".c", k.Source)
		if err != nil {
			t.Fatalf("%s: %v", k.Name, err)
		}
		checkStream(t, k.Name, tr, -1)
		lines := testprog.LoopLines(mod)
		if k.Markers != nil {
			lines = lines[:0]
			for _, m := range k.Markers {
				line, err := k.FindLine(m)
				if err != nil {
					t.Fatal(err)
				}
				lines = append(lines, line)
			}
		}
		for _, line := range lines {
			lm := mod.LoopByLine(line)
			for i, r := range tr.Regions(lm.ID) {
				checkStream(t, fmt.Sprintf("%s L%d region %d", k.Name, line, i), tr.Slice(r), lm.ID)
			}
		}
	}
}

// tableKernel is one program behind Tables 1–3 with the markers of the
// loops its table rows analyze.
type tableKernel struct {
	kernels.Kernel
	Markers []string
}

// tableKernels returns the 38 programs behind Tables 1–3 at the sizes
// the tables use.
func tableKernels() []tableKernel {
	var ks []tableKernel
	for _, b := range kernels.SPEC() {
		tk := tableKernel{Kernel: b.Kernel}
		for _, target := range b.Targets {
			tk.Markers = append(tk.Markers, target.Marker)
		}
		ks = append(ks, tk)
	}
	ks = append(ks,
		tableKernel{kernels.GaussSeidel(32, 2), []string{"@time-loop"}},
		tableKernel{kernels.PDESolver(16, 4), []string{"@grid-j"}})
	for _, p := range kernels.UTDSP() {
		ks = append(ks, tableKernel{p.Array, []string{"@hot"}}, tableKernel{p.Pointer, []string{"@hot"}})
	}
	return ks
}

// callsProgram moves values through arguments and return values, returns
// early from inside a loop, and recurses into a function whose loop then
// has nested regions.
const callsProgram = `
double a[32];
double acc;

double scale(double x, double y) {
  return x * 0.5 + y;
}

int find(double lim) {
  int i;
  for (i = 0; i < 32; i++) {
    if (a[i] > lim) { return i; }
    acc = acc + a[i];
  }
  return 0 - 1;
}

double walk(int d) {
  int k;
  double s = 0.0;
  for (k = 0; k < 3; k++) {
    s = s + a[k + d];
    if (d < 2) { s = s + walk(d + 1); }
  }
  return s;
}

void main() {
  int i;
  for (i = 0; i < 32; i++) {
    a[i] = scale(0.25 * i, acc);
  }
  for (i = 0; i < 4; i++) {
    acc = acc + walk(0) + find(2.0 * i);
  }
  print(acc);
}
`

// checkStream compares the streaming forms against the graph of tr. A
// negative larusLoop skips Larus (a whole trace has no one loop).
func checkStream(t *testing.T, name string, tr *trace.Trace, larusLoop int) {
	t.Helper()
	g, err := reference.Build(tr)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	kumarTS, kumar := kumarTimestamps(g), kumar(g)
	ks := baseline.NewKumar(tr.Module)
	var ls *baseline.Stream
	var lr *larusGraphResult
	if larusLoop >= 0 {
		ls, lr = baseline.NewLarus(tr.Module, larusLoop), larus(g, larusLoop)
	}
	k := core.AcquireStreamKernel(tr.Module, ddg.Options{}, core.Options{}, nil)
	defer k.Release()
	for i, ev := range tr.Events {
		ts, err := ks.Feed(ev.ID, ev.Addr)
		if err != nil || ts != kumarTS[i] {
			t.Fatalf("%s: event %d: Kumar timestamp %d (err %v), graph %d", name, i, ts, err, kumarTS[i])
		}
		if ls != nil {
			if fin, err := ls.Feed(ev.ID, ev.Addr); err != nil || fin != lr.Finish[i] {
				t.Fatalf("%s: event %d: Larus finish %d (err %v), graph %d", name, i, fin, err, lr.Finish[i])
			}
		}
		if err := k.Feed(ev.ID, ev.Addr); err != nil {
			t.Fatalf("%s: stream kernel: %v", name, err)
		}
	}
	if ks.CriticalPath() != kumar.CriticalPath || ks.AvgParallelism() != kumar.AvgParallelism {
		t.Fatalf("%s: Kumar critical path %d, avg parallelism %v; graph %d, %v",
			name, ks.CriticalPath(), ks.AvgParallelism(), kumar.CriticalPath, kumar.AvgParallelism)
	}
	if ls != nil && ls.CriticalPath() != lr.Span {
		t.Fatalf("%s: Larus span %d, graph %d", name, ls.CriticalPath(), lr.Span)
	}
	for id, inst := range g.CandidateInstances() {
		ts := reference.Timestamps(g, id, core.Options{})
		got := k.InstanceTimestamps(id)
		if len(got) != len(inst) {
			t.Fatalf("%s: instr %d: kernel has %d instances, graph %d", name, id, len(got), len(inst))
		}
		for j, n := range inst {
			if got[j] != ts[n] {
				t.Fatalf("%s: instr %d instance %d: kernel timestamp %d, graph %d", name, id, j, got[j], ts[n])
			}
		}
	}
}

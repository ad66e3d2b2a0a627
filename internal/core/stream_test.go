package core_test

// Kernel-level differential testing of the one-pass stream kernel: for
// random programs, the reduction inputs of testprog.Reductions, and every
// graph-option variant, feeding a region's events through
// AcquireStreamKernel/Feed/(Relax, Feed)/Finish must produce a Report
// byte-identical (reflect.DeepEqual) to materializing the region with
// ddg.BuildOpts and analyzing it with the per-candidate graph reference
// core.AnalyzeCtx, with and without RelaxReductions. The
// streaming-region-level differentials live in internal/pipeline.

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"github.com/example/vectrace/internal/core"
	"github.com/example/vectrace/internal/ddg"
	"github.com/example/vectrace/internal/pipeline"
	"github.com/example/vectrace/internal/testprog"
	"github.com/example/vectrace/internal/trace"
)

// genStreamProgram emits a random MiniC program mixing the shapes that
// stress the kernel: streaming statements, ±1-offset recurrences, scalar
// reductions, and conditional stores — enough distinct FP instructions for
// many candidate columns.
func genStreamProgram(seed int64) string {
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

// streamTrace compiles and traces one generated program.
func streamTrace(t *testing.T, seed int64) (*trace.Trace, string) {
	t.Helper()
	src := genStreamProgram(seed)
	_, _, tr, err := pipeline.CompileAndTrace(fmt.Sprintf("stream%d.c", seed), src)
	if err != nil {
		t.Fatalf("pipeline failed:\n%s\nerror: %v", src, err)
	}
	return tr, src
}

// oneShot runs the whole trace through a pooled stream kernel, replaying
// it under RelaxReductions when some column qualifies as a reduction.
func oneShot(t *testing.T, tr *trace.Trace, dopts ddg.Options, opts core.Options) (*core.Report, error) {
	t.Helper()
	k := core.AcquireStreamKernel(tr.Module, dopts, opts, nil)
	defer k.Release()
	feed := func() error {
		for _, ev := range tr.Events {
			if err := k.Feed(ev.ID, ev.Addr); err != nil {
				return err
			}
		}
		return nil
	}
	if err := feed(); err != nil {
		return nil, err
	}
	if opts.RelaxReductions && k.Relax() {
		if err := feed(); err != nil {
			return nil, err
		}
	}
	return k.Finish(context.Background())
}

// materialized is the oracle: build the full graph, analyze it.
func materialized(t *testing.T, tr *trace.Trace, dopts ddg.Options, opts core.Options) (*core.Report, error) {
	t.Helper()
	g, err := ddg.BuildOpts(tr, dopts)
	if err != nil {
		t.Fatalf("ddg.BuildOpts: %v", err)
	}
	return core.AnalyzeCtx(context.Background(), g, opts)
}

var streamDoptsVariants = []struct {
	name  string
	dopts ddg.Options
}{
	{"flow", ddg.Options{}},
	{"anti-output", ddg.Options{IncludeAntiOutput: true}},
	{"control", ddg.Options{IncludeControl: true}},
	{"ints", ddg.Options{CharacterizeInts: true}},
	{"all", ddg.Options{IncludeAntiOutput: true, IncludeControl: true, CharacterizeInts: true}},
}

// TestStreamKernelMatchesMaterialized is the core differential: whole-trace
// reports from the one-pass kernel equal the materialized oracle across
// random programs and every graph-option variant. Kernels are reused from
// the pool across cases, so the test also exercises recycled tables.
func TestStreamKernelMatchesMaterialized(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		tr, src := streamTrace(t, seed)
		for _, v := range streamDoptsVariants {
			want, wantErr := materialized(t, tr, v.dopts, core.Options{})
			got, gotErr := oneShot(t, tr, v.dopts, core.Options{})
			if (wantErr == nil) != (gotErr == nil) {
				t.Fatalf("seed %d %s: error mismatch: oracle %v, one-pass %v\n%s", seed, v.name, wantErr, gotErr, src)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d %s: one-pass report differs from materialized oracle\ngot:  %+v\nwant: %+v\nprogram:\n%s",
					seed, v.name, got, want, src)
			}
		}
	}
}

// TestStreamKernelMatchesPerRegion feeds each dynamic region of the target
// loop separately — the shape the pipeline uses — and compares against
// building each region slice.
func TestStreamKernelMatchesPerRegion(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		tr, src := streamTrace(t, seed)
		for _, loop := range tr.Module.Loops {
			regions := tr.Regions(loop.ID)
			for ri, r := range regions {
				sub := tr.Slice(r)
				for _, v := range streamDoptsVariants {
					want, wantErr := materialized(t, sub, v.dopts, core.Options{})
					got, gotErr := oneShot(t, sub, v.dopts, core.Options{})
					if (wantErr == nil) != (gotErr == nil) {
						t.Fatalf("seed %d loop %d region %d %s: error mismatch: %v vs %v", seed, loop.ID, ri, v.name, wantErr, gotErr)
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("seed %d loop %d region %d %s: report differs\ngot:  %+v\nwant: %+v\nprogram:\n%s",
							seed, loop.ID, ri, v.name, got, want, src)
					}
				}
			}
		}
	}
}

// TestStreamKernelReductionFlag pins the online reduction detector against
// the graph-based detector on the canonical reduction kernel shapes that
// genStreamProgram emits, plus a loop with no reduction at all. (The flag is
// part of the DeepEqual above; this is the focused failure message.)
func TestStreamKernelReductionFlag(t *testing.T) {
	src := `double A[32];
double s;

void main() {
  int i;
  s = 0.0;
  for (i = 0; i < 32; i++) { A[i] = 0.5 + 0.25 * i; }
  for (i = 0; i < 32; i++) { s = s + A[i] * 0.5; }
  print(s);
}
`
	_, _, tr, err := pipeline.CompileAndTrace("red.c", src)
	if err != nil {
		t.Fatalf("pipeline: %v", err)
	}
	want, _ := materialized(t, tr, ddg.Options{}, core.Options{})
	got, err := oneShot(t, tr, ddg.Options{}, core.Options{})
	if err != nil {
		t.Fatalf("one-pass: %v", err)
	}
	var wantRed, gotRed int
	for _, r := range want.PerInstr {
		if r.IsReduction {
			wantRed++
		}
	}
	for _, r := range got.PerInstr {
		if r.IsReduction {
			gotRed++
		}
	}
	if wantRed == 0 {
		t.Fatalf("oracle found no reduction in the reduction kernel:\n%+v", want.PerInstr)
	}
	if gotRed != wantRed {
		t.Fatalf("one-pass reductions = %d, oracle = %d", gotRed, wantRed)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("reduction kernel report differs\ngot:  %+v\nwant: %+v", got, want)
	}
}

// TestStreamKernelBudget: a budget tight enough to trip mid-feed degrades
// the region with an ErrResourceLimit-wrapped error, latched across
// subsequent Feed and Finish calls; the failure point is deterministic
// (pool warmth cannot move it).
func TestStreamKernelBudget(t *testing.T) {
	tr, _ := streamTrace(t, 1)
	opts := core.Options{Budget: core.Budget{MaxAnalysisBytes: 512}}

	feedAll := func() (int, error) {
		k := core.AcquireStreamKernel(tr.Module, ddg.Options{}, opts, nil)
		defer k.Release()
		for i, ev := range tr.Events {
			if err := k.Feed(ev.ID, ev.Addr); err != nil {
				if _, ferr := k.Finish(context.Background()); ferr == nil || ferr.Error() != err.Error() {
					t.Fatalf("Finish after failed Feed: got %v, want latched %v", ferr, err)
				}
				return i, err
			}
		}
		_, err := k.Finish(context.Background())
		return len(tr.Events), err
	}

	at1, err1 := feedAll()
	if err1 == nil {
		t.Fatalf("512-byte budget not exceeded over %d events", len(tr.Events))
	}
	if !errors.Is(err1, core.ErrResourceLimit) {
		t.Fatalf("budget error %v does not wrap ErrResourceLimit", err1)
	}
	// A second, pool-warmed run must fail at the same event with the same text.
	at2, err2 := feedAll()
	if at1 != at2 || err1.Error() != err2.Error() {
		t.Fatalf("budget failure moved: event %d (%v) vs event %d (%v)", at1, err1, at2, err2)
	}
}

// TestStreamKernelCancel mirrors AnalyzeCtx's contract: a canceled context
// surfaces from Finish wrapping both core.ErrCanceled and the context cause
// — except for candidate-free regions, which succeed before the check, on
// both paths.
func TestStreamKernelCancel(t *testing.T) {
	tr, _ := streamTrace(t, 2)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	g, err := ddg.Build(tr)
	if err != nil {
		t.Fatalf("ddg.Build: %v", err)
	}
	_, wantErr := core.AnalyzeCtx(ctx, g, core.Options{})

	k := core.AcquireStreamKernel(tr.Module, ddg.Options{}, core.Options{}, nil)
	defer k.Release()
	for _, ev := range tr.Events {
		if err := k.Feed(ev.ID, ev.Addr); err != nil {
			t.Fatalf("Feed: %v", err)
		}
	}
	_, gotErr := k.Finish(ctx)
	if (wantErr == nil) != (gotErr == nil) {
		t.Fatalf("cancel parity: oracle %v, one-pass %v", wantErr, gotErr)
	}
	if gotErr != nil {
		if !errors.Is(gotErr, core.ErrCanceled) || !errors.Is(gotErr, context.Canceled) {
			t.Fatalf("cancel error %v should wrap ErrCanceled and context.Canceled", gotErr)
		}
		if gotErr.Error() != wantErr.Error() {
			t.Fatalf("cancel error text differs: %q vs %q", gotErr, wantErr)
		}
	}
}

// regionsOf returns tr itself followed by every dynamic region of every
// loop: the whole-program and per-region inputs of a differential.
func regionsOf(tr *trace.Trace) []*trace.Trace {
	subs := []*trace.Trace{tr}
	for _, loop := range tr.Module.Loops {
		for _, r := range tr.Regions(loop.ID) {
			subs = append(subs, tr.Slice(r))
		}
	}
	return subs
}

// TestFusedMatchesOracleRandomPrograms: on random programs, in both
// reduction modes, the fused one-pass stream kernel equals the
// per-candidate graph oracle (Workers: 1) on the whole trace and on every
// loop region, and the oracle itself is identical at every worker count.
func TestFusedMatchesOracleRandomPrograms(t *testing.T) {
	workerCounts := []int{4, runtime.GOMAXPROCS(0)}
	for seed := int64(0); seed < 15; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			tr, src := streamTrace(t, seed)
			for _, relax := range []bool{false, true} {
				for si, sub := range regionsOf(tr) {
					opts := core.Options{Workers: 1, RelaxReductions: relax}
					want, wantErr := materialized(t, sub, ddg.Options{}, opts)
					got, gotErr := oneShot(t, sub, ddg.Options{}, opts)
					if (wantErr == nil) != (gotErr == nil) || !reflect.DeepEqual(got, want) {
						t.Fatalf("relax=%v input %d: stream kernel differs from oracle (errors %v / %v)\nprogram:\n%s\noracle: %+v\nstream: %+v",
							relax, si, wantErr, gotErr, src, want, got)
					}
					if si > 0 {
						continue
					}
					for _, w := range workerCounts {
						opts.Workers = w
						if par, _ := materialized(t, sub, ddg.Options{}, opts); !reflect.DeepEqual(par, want) {
							t.Fatalf("relax=%v workers=%d: oracle differs from Workers: 1", relax, w)
						}
					}
				}
			}
		})
	}
}

// TestFusedReductionRelaxationRegression pins the §4.1 reduction extension
// on the stream kernel over a dot-product kernel: the relaxed report must
// equal the oracle's, the reduction must be detected, and relaxation must
// turn the serial chain into vectorizable work exactly as the oracle says.
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
	var reps [2]*core.Report
	for i, relax := range []bool{false, true} {
		opts := core.Options{Workers: 1, RelaxReductions: relax}
		want, _ := materialized(t, tr, ddg.Options{}, opts)
		got, err := oneShot(t, tr, ddg.Options{}, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("relax=%v: stream kernel differs from oracle\noracle: %+v\nstream: %+v", relax, want, got)
		}
		reps[i] = got
	}
	base, relaxed := reps[0], reps[1]
	foundReduction := false
	for _, ir := range base.PerInstr {
		if ir.IsReduction {
			foundReduction = true
		}
	}
	if !foundReduction {
		t.Fatal("stream kernel lost the reduction flag")
	}
	if relaxed.UnitVecOpsPct <= base.UnitVecOpsPct {
		t.Fatalf("relaxation did not increase unit-stride potential: %.1f%% -> %.1f%%",
			base.UnitVecOpsPct, relaxed.UnitVecOpsPct)
	}
}

// reductionTrace compiles (or builds) and traces one relaxation input.
func reductionTrace(t *testing.T, rc testprog.Reduction) *trace.Trace {
	t.Helper()
	if rc.Src == "" {
		_, tr, err := pipeline.Trace(rc.Module())
		if err != nil {
			t.Fatalf("%s: %v", rc.Name, err)
		}
		return tr
	}
	_, _, tr, err := pipeline.CompileAndTrace(rc.Name+".c", rc.Src)
	if err != nil {
		t.Fatalf("%s: %v", rc.Name, err)
	}
	return tr
}

// TestStreamRelaxMatchesReference is the relaxation differential: on every
// reduction input, under each dependence option, the stream kernel's
// relaxed replay equals the per-candidate graph reference with
// RelaxReductions on the whole trace and on every loop region. Each input
// must actually reduce: some candidate is flagged and relaxation changes
// the whole-trace report.
func TestStreamRelaxMatchesReference(t *testing.T) {
	for _, rc := range testprog.Reductions() {
		tr := reductionTrace(t, rc)
		subs := regionsOf(tr)
		for _, v := range streamDoptsVariants {
			opts := core.Options{Workers: 1, RelaxReductions: true}
			for si, sub := range subs {
				want, wantErr := materialized(t, sub, v.dopts, opts)
				got, gotErr := oneShot(t, sub, v.dopts, opts)
				if (wantErr == nil) != (gotErr == nil) || !reflect.DeepEqual(got, want) {
					t.Fatalf("%s %s input %d: relaxed stream kernel differs from reference (errors %v / %v)\ngot:  %+v\nwant: %+v",
						rc.Name, v.name, si, wantErr, gotErr, got, want)
				}
			}
			whole, _ := oneShot(t, tr, v.dopts, opts)
			base, _ := oneShot(t, tr, v.dopts, core.Options{Workers: 1})
			if !strings.Contains(base.String(), "[reduction]") {
				t.Fatalf("%s %s: no candidate qualifies as a reduction", rc.Name, v.name)
			}
			if reflect.DeepEqual(whole, base) {
				t.Fatalf("%s %s: relaxation changed nothing", rc.Name, v.name)
			}
		}
	}
}

package pipeline_test

// Differential and resource-behavior tests of the one-pass fused
// ingest→analyze path against the materialized-graph reference
// (referenceRegions). Both event inputs are covered:
// AnalyzeLoopRegionsStreamCtx (decoder-fed) and AnalyzeLoopRegionsLiveCtx
// (interpreter-fed, no trace anywhere) — both must be byte-identical to the
// reference for every worker count.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"reflect"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"

	"github.com/example/vectrace/internal/core"
	"github.com/example/vectrace/internal/ddg"
	"github.com/example/vectrace/internal/ir"
	"github.com/example/vectrace/internal/kernels"
	"github.com/example/vectrace/internal/obs"
	"github.com/example/vectrace/internal/pipeline"
	"github.com/example/vectrace/internal/testprog"
	"github.com/example/vectrace/internal/trace"
)

// TestOnePassMatchesMaterializedOracle: for random programs, every loop and
// worker counts {1, 3, 8}, the one-pass entry points must equal the
// materialized reference report-for-report, live and streaming. The
// reduction inputs of testprog.Reductions follow under RelaxReductions and
// each dependence option, so the relaxed replay meets the graph reference
// on inputs that actually reduce.
func TestOnePassMatchesMaterializedOracle(t *testing.T) {
	workerCounts := []int{1, 3, 8}
	for seed := int64(0); seed < 8; seed++ {
		src := testprog.Random(seed)
		mod, _, tr, err := testprog.CompileAndTrace(fmt.Sprintf("op%d.c", seed), src)
		if err != nil {
			t.Fatalf("pipeline failed:\n%s\nerror: %v", src, err)
		}
		encoded := encodeTrace(t, tr)
		dopts := ddg.Options{}
		for _, lm := range mod.Loops {
			want, wantErr := referenceRegions(tr, lm.Line, dopts, core.Options{})
			for _, w := range workerCounts {
				onePass := core.Options{Workers: w}
				_, got, gotErr := pipeline.AnalyzeLoopRegionsLiveCtx(context.Background(), mod, lm.Line, dopts, onePass, core.Budget{})
				if (wantErr == nil) != (gotErr == nil) {
					t.Fatalf("seed %d loop %d: oracle err %v, one-pass err %v",
						seed, lm.Line, wantErr, gotErr)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d loop %d workers %d: live one-pass differs from materialized oracle\nprogram:\n%s",
						seed, lm.Line, w, src)
				}

				dec := trace.NewDecoder(bytes.NewReader(encoded))
				sgot, sgotErr := pipeline.AnalyzeLoopRegionsStreamCtx(context.Background(), mod, dec, lm.Line, dopts, onePass)
				if (wantErr == nil) != (sgotErr == nil) {
					t.Fatalf("seed %d loop %d: oracle err %v, streaming one-pass err %v",
						seed, lm.Line, wantErr, sgotErr)
				}
				if !reflect.DeepEqual(sgot, want) {
					t.Fatalf("seed %d loop %d workers %d: streaming one-pass differs from materialized oracle",
						seed, lm.Line, w)
				}
			}
		}
	}

	for _, rc := range testprog.Reductions() {
		m := reductionModule(t, rc)
		_, tr, err := testprog.Trace(m)
		if err != nil {
			t.Fatalf("%s: %v", rc.Name, err)
		}
		encoded := encodeTrace(t, tr)
		for _, dopts := range []ddg.Options{{}, {IncludeControl: true}, {IncludeAntiOutput: true}, {CharacterizeInts: true}} {
			copts := core.Options{Workers: 2, RelaxReductions: true}
			for _, line := range testprog.LoopLines(m) {
				want, wantErr := referenceRegions(tr, line, dopts, copts)
				_, got, gotErr := pipeline.AnalyzeLoopRegionsLiveCtx(context.Background(), m, line, dopts, copts, core.Budget{})
				sgot, sgotErr := pipeline.AnalyzeLoopRegionsStreamCtx(context.Background(), m, trace.NewDecoder(bytes.NewReader(encoded)), line, dopts, copts)
				if (wantErr == nil) != (gotErr == nil) || (wantErr == nil) != (sgotErr == nil) {
					t.Fatalf("%s %+v loop %d: oracle err %v, live err %v, streaming err %v", rc.Name, dopts, line, wantErr, gotErr, sgotErr)
				}
				if !reflect.DeepEqual(got, want) || !reflect.DeepEqual(sgot, want) {
					t.Fatalf("%s %+v loop %d: relaxed one-pass differs from materialized oracle", rc.Name, dopts, line)
				}
			}
		}
	}
}

// reductionModule builds (or compiles) one relaxation input.
func reductionModule(t *testing.T, rc testprog.Reduction) *ir.Module {
	t.Helper()
	if rc.Src == "" {
		return rc.Module()
	}
	m, err := pipeline.Compile(rc.Name+".c", rc.Src)
	if err != nil {
		t.Fatalf("%s: %v", rc.Name, err)
	}
	return m
}

// TestAnalyzeLoopRegionsLiveParity: the fully fused live entry (interpreter
// events straight into the per-region workers, no trace at any layer)
// matches the trace-then-analyze reference, both on the one-pass kernel and
// under RelaxReductions, where each worker replays its region's held events.
func TestAnalyzeLoopRegionsLiveParity(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		src := testprog.Random(seed)
		mod, err := pipeline.Compile(fmt.Sprintf("live%d.c", seed), src)
		if err != nil {
			t.Fatalf("compile failed:\n%s\nerror: %v", src, err)
		}
		_, tr, err := testprog.Trace(mod)
		if err != nil {
			t.Fatalf("trace: %v", err)
		}
		for _, lm := range mod.Loops {
			for _, copts := range []core.Options{
				{Workers: 2},
				{Workers: 2, RelaxReductions: true},
			} {
				want, wantErr := referenceRegions(tr, lm.Line, ddg.Options{}, copts)
				_, got, gotErr := pipeline.AnalyzeLoopRegionsLiveCtx(context.Background(), mod, lm.Line, ddg.Options{}, copts, core.Budget{})
				if (wantErr == nil) != (gotErr == nil) {
					t.Fatalf("seed %d loop %d relax=%v: trace-first err %v, live err %v",
						seed, lm.Line, copts.RelaxReductions, wantErr, gotErr)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d loop %d relax=%v: live reports differ from trace-first\nprogram:\n%s",
						seed, lm.Line, copts.RelaxReductions, src)
				}
			}
		}
	}
}

// TestOnePassFitsWhereMaterializedExceedsBudget is the headline memory
// property: a region long enough that the materialized path's O(events)
// analysis footprint exceeds core.Budget.MaxAnalysisBytes succeeds on the
// one-pass path, whose working set scales with live addresses × candidate
// instances instead of region length.
func TestOnePassFitsWhereMaterializedExceedsBudget(t *testing.T) {
	_, _, tr, err := testprog.CompileAndTrace("budget.c", testprog.BudgetDemo(12000))
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Events) < 100000 {
		t.Fatalf("region too short to make the point: %d events", len(tr.Events))
	}
	budget := core.Budget{MaxAnalysisBytes: 256 << 10}

	_, matErr := referenceRegions(tr, testprog.BudgetDemoLoopLine, ddg.Options{}, core.Options{Workers: 1, Budget: budget})
	if !errors.Is(matErr, core.ErrResourceLimit) {
		t.Fatalf("materialized path should exceed the %d-byte budget on a %d-event region, got %v",
			budget.MaxAnalysisBytes, len(tr.Events), matErr)
	}

	onePass := core.Options{Workers: 1, Budget: budget}
	regs, opErr := pipeline.AnalyzeLoopRegionsStreamCtx(context.Background(), tr.Module, &trace.SliceSource{Events: tr.Events},
		testprog.BudgetDemoLoopLine, ddg.Options{}, onePass)
	if opErr != nil {
		t.Fatalf("one-pass path should fit in the same budget: %v", opErr)
	}
	if len(regs) != 1 || regs[0].Report == nil {
		t.Fatalf("one-pass path returned no report: %+v", regs)
	}
}

// TestOnePassBudgetDegradesRegionOnly (streaming): a budget tight enough to
// trip mid-feed on the long region degrades that region only — the error
// wraps core.ErrResourceLimit under the "pipeline: region N" prefix, the
// short regions still succeed, Elapsed is populated on every placed report
// (failed ones included), and the failure is visible to the recorder the
// same way any region failure is (the stderr summary's inputs).
func TestOnePassBudgetDegradesRegionOnly(t *testing.T) {
	// The analyzed r-loop is entered three times: short, long, short. The
	// long entry sweeps 8192 distinct addresses, so the kernel's live
	// working set — not the event count — is what breaks the budget,
	// mid-feed.
	src := `
double a[8];
int big[8192];
void main() {
  int t; int r; int n;
  for (t = 0; t < 3; t++) {
    n = 8;
    if (t == 1) { n = 8192; }
    for (r = 0; r < n; r++) { big[r] = big[r] + r; a[1] = a[1] * 0.5; }
  }
}
`
	mod, _, tr, err := testprog.CompileAndTrace("degrade.c", src)
	if err != nil {
		t.Fatal(err)
	}
	const loopLine = 9
	encoded := encodeTrace(t, tr)
	copts := core.Options{Workers: 2, Budget: core.Budget{MaxAnalysisBytes: 64 << 10}}

	rec := obs.New()
	ctx := obs.WithRecorder(t.Context(), rec)
	dec := trace.NewDecoder(bytes.NewReader(encoded))
	regs, err := pipeline.AnalyzeLoopRegionsStreamCtx(ctx, mod, dec, loopLine, ddg.Options{}, copts)
	if err == nil {
		t.Fatalf("expected the long region to exceed the budget")
	}
	if !errors.Is(err, core.ErrResourceLimit) {
		t.Fatalf("summary error %v does not wrap ErrResourceLimit", err)
	}
	if len(regs) != 3 {
		t.Fatalf("got %d regions, want 3", len(regs))
	}
	var failed int
	for i, rr := range regs {
		if rr.Elapsed == 0 {
			t.Fatalf("region %d: Elapsed not populated under a recorder (failed and succeeded regions alike)", i)
		}
		if rr.Err != nil {
			failed++
			if !errors.Is(rr.Err, core.ErrResourceLimit) {
				t.Fatalf("region %d error %v does not wrap ErrResourceLimit", i, rr.Err)
			}
			if want := fmt.Sprintf("pipeline: region %d: ", i); !strings.HasPrefix(rr.Err.Error(), want) {
				t.Fatalf("region %d error %q lacks prefix %q", i, rr.Err, want)
			}
		} else if rr.Report == nil {
			t.Fatalf("region %d: no report and no error", i)
		}
	}
	if failed != 1 {
		t.Fatalf("%d regions failed, want exactly the long one", failed)
	}
	// Lifecycle balance feeds the CLI's failed-region summary.
	started, completed, recFailed := rec.Get(obs.RegionsStarted), rec.Get(obs.RegionsCompleted), rec.Get(obs.RegionsFailed)
	if started != 3 || completed != 2 || recFailed != 1 {
		t.Fatalf("lifecycle counters started=%d completed=%d failed=%d, want 3/2/1", started, completed, recFailed)
	}
	// The live route degrades identically (same region, same cause).
	_, mregs, merr := pipeline.AnalyzeLoopRegionsLiveCtx(t.Context(), mod, loopLine, ddg.Options{}, copts, core.Budget{})
	if !errors.Is(merr, core.ErrResourceLimit) || len(mregs) != 3 {
		t.Fatalf("live one-pass: err %v over %d regions", merr, len(mregs))
	}
	for i := range regs {
		if (regs[i].Err == nil) != (mregs[i].Err == nil) {
			t.Fatalf("region %d: streaming err %v, live err %v", i, regs[i].Err, mregs[i].Err)
		}
		if regs[i].Err != nil && regs[i].Err.Error() != mregs[i].Err.Error() {
			t.Fatalf("region %d: error text differs:\n%q\n%q", i, regs[i].Err, mregs[i].Err)
		}
	}
}

// TestOnePassPoolAndFootprintCounters: across a multi-region observed run the
// kernel pool must actually recycle (hits > 0 once more regions than workers
// have run) and the footprint gauges must register the live working set.
func TestOnePassPoolAndFootprintCounters(t *testing.T) {
	_, _, tr, err := testprog.CompileAndTrace("pool.c", repeatedKernel(8))
	if err != nil {
		t.Fatal(err)
	}
	rec := obs.New()
	ctx := obs.WithRecorder(t.Context(), rec)
	if _, err := pipeline.AnalyzeLoopRegionsStreamCtx(ctx, tr.Module, &trace.SliceSource{Events: tr.Events},
		repeatedKernelLoopLine, ddg.Options{}, core.Options{Workers: 2}); err != nil {
		t.Fatal(err)
	}
	hits, misses := rec.Get(obs.StreamPoolHits), rec.Get(obs.StreamPoolMisses)
	if hits+misses != 8 {
		t.Fatalf("pool hits %d + misses %d != 8 regions", hits, misses)
	}
	if hits == 0 {
		t.Fatalf("8 regions over 2 workers produced no pool hits (misses=%d)", misses)
	}
	if rec.Get(obs.ShadowPeakLiveAddresses) == 0 {
		t.Fatal("ShadowPeakLiveAddresses stayed zero over a store-heavy kernel")
	}
	if rec.Get(obs.AnalysisFootprintBytes) == 0 {
		t.Fatal("AnalysisFootprintBytes stayed zero on the one-pass path")
	}
}

// TestRelaxReductionsRetainsPerRegion pins the memory bound of the one
// route that holds region events: under RelaxReductions each region worker
// keeps its region's events for the replay, so an
// all-regions live analysis retains at most workers × the longest region —
// never the trace. ScanPeakRetainedEvents counts every held event plus the
// chunks in flight to the workers.
func TestRelaxReductionsRetainsPerRegion(t *testing.T) {
	const workers = 2
	mod, _, tr, err := testprog.CompileAndTrace("relax.c", repeatedKernel(32))
	if err != nil {
		t.Fatal(err)
	}
	rec := obs.New()
	ctx := obs.WithRecorder(t.Context(), rec)
	copts := core.Options{Workers: workers, RelaxReductions: true}
	_, regs, err := pipeline.AnalyzeLoopRegionsLiveCtx(ctx, mod, repeatedKernelLoopLine, ddg.Options{}, copts, core.Budget{})
	if err != nil {
		t.Fatal(err)
	}
	longest := 0
	for _, rr := range regs {
		longest = max(longest, rr.Events)
	}
	bound := int64(workers * longest)
	if n := int64(len(tr.Events)); n < 4*bound {
		t.Fatalf("trace of %d events too short against the %d-event bound to make the point", n, bound)
	}
	peak := rec.Get(obs.ScanPeakRetainedEvents)
	t.Logf("regions=%d longest=%d trace=%d peak retained=%d bound=%d", len(regs), longest, len(tr.Events), peak, bound)
	if peak == 0 {
		t.Fatal("ScanPeakRetainedEvents never recorded")
	}
	if peak > bound {
		t.Fatalf("retained %d events, beyond workers × longest region = %d", peak, bound)
	}
}

// TestOnePassPeakMemoryVsMaterialized is the acceptance bar for the fused
// path: on a single 64-candidate region the one-pass route's peak live heap
// must be at least 4× below the materialized route's (in practice the gap is
// an order of magnitude — the assertion leaves headroom for sampler noise).
func TestOnePassPeakMemoryVsMaterialized(t *testing.T) {
	if testing.Short() {
		t.Skip("memory-sampling test")
	}
	var sb strings.Builder
	sb.WriteString("double a[1024];\ndouble b[1024];\nvoid main() {\n  int i;\n  for (i = 1; i < 1024; i++) {\n")
	// 16 statements × 4 FP multiply-adds each = 64 candidate sites.
	for s := 0; s < 16; s++ {
		fmt.Fprintf(&sb, "    a[i] = ((a[i-1] * 0.5 + b[i] * 1.5) * 0.25 + a[i] * 0.125) + %d.0;\n", s)
	}
	sb.WriteString("  }\n}\n")
	_, _, tr, err := testprog.CompileAndTrace("wide.c", sb.String())
	if err != nil {
		t.Fatal(err)
	}
	const loopLine = 5
	copts := core.Options{Workers: 1}
	runOnePass := func() uint64 {
		return peakLiveBytes(func() {
			if _, err := pipeline.AnalyzeLoopRegionsStreamCtx(context.Background(), tr.Module,
				&trace.SliceSource{Events: tr.Events}, loopLine, ddg.Options{}, copts); err != nil {
				t.Error(err)
			}
		})
	}
	runMaterialized := func() uint64 {
		return peakLiveBytes(func() {
			if _, err := referenceRegions(tr, loopLine, ddg.Options{}, copts); err != nil {
				t.Error(err)
			}
		})
	}
	// Both routes are measured cold, from emptied pools (two collections
	// clear a sync.Pool and its victim cache), so neither run depends on
	// what earlier tests left pooled. A low GC target keeps HeapAlloc close
	// to the live heap, instead of counting garbage up to the default
	// target.
	defer debug.SetGCPercent(debug.SetGCPercent(5))
	cold := func(run func() uint64) uint64 {
		runtime.GC()
		runtime.GC()
		return run()
	}
	materializedPeak := cold(runMaterialized)
	onePass := cold(runOnePass)
	t.Logf("events=%d one-pass peak=%d materialized peak=%d ratio=%.1f",
		len(tr.Events), onePass, materializedPeak, float64(materializedPeak)/float64(onePass))
	if onePass == 0 {
		onePass = 1
	}
	if materializedPeak < 4*onePass {
		t.Fatalf("one-pass peak %d not ≥4× below materialized peak %d (%d events)",
			onePass, materializedPeak, len(tr.Events))
	}
}

// TestOnePassAllocsSubLinearInRegionLength is the memory-regression smoke
// the CI job runs (VECTRACE_MEM_SMOKE=1): with the region's candidate work
// fixed and its event count grown 8× via an integer repetition loop, the
// streaming one-pass path's allocated bytes per analysis must grow
// sub-linearly (< 4×). A rewrite that quietly re-materializes the region
// fails this immediately — its allocations track region length.
func TestOnePassAllocsSubLinearInRegionLength(t *testing.T) {
	if os.Getenv("VECTRACE_MEM_SMOKE") == "" {
		t.Skip("set VECTRACE_MEM_SMOKE=1 to run the memory-regression smoke")
	}
	measure := func(reps int) float64 {
		mod, err := pipeline.Compile("smoke.c", testprog.BudgetDemo(reps))
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if _, err := pipeline.Record(mod, &buf); err != nil {
			t.Fatal(err)
		}
		encoded := buf.Bytes()
		res := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				dec := trace.NewDecoder(bytes.NewReader(encoded))
				if _, err := pipeline.AnalyzeLoopRegionsStreamCtx(context.Background(), mod, dec, testprog.BudgetDemoLoopLine, ddg.Options{}, core.Options{Workers: 1}); err != nil {
					b.Fatal(err)
				}
			}
		})
		return float64(res.AllocedBytesPerOp())
	}
	small := measure(4000)
	large := measure(32000)
	t.Logf("alloc B/op: reps=4000 %.0f, reps=32000 %.0f (8× events, %.2f× bytes)", small, large, large/small)
	if small <= 0 {
		small = 1
	}
	if large >= 4*small {
		t.Fatalf("allocated bytes grew %.2f× for 8× region length — one-pass path is no longer O(live set): %.0f vs %.0f B/op",
			large/small, large, small)
	}
}

// TestInstanceHeapFlatInProgramLength is the instance-job memory gate the
// CI job runs (VECTRACE_MEM_SMOKE=1): AnalyzeSourceCtx with instance 0
// analyzes one i-loop region of GaussSeidel(64,T), so its heap peak must
// not track the program's length. At 4T the peak must stay within 1.5× of
// the peak at T; a single-instance path that records the whole program
// first grows by about 40 bytes per interpreted step and fails at once.
func TestInstanceHeapFlatInProgramLength(t *testing.T) {
	if os.Getenv("VECTRACE_MEM_SMOKE") == "" {
		t.Skip("set VECTRACE_MEM_SMOKE=1 to run the memory-regression smoke")
	}
	const steps = 12
	peak := func(T int) uint64 {
		k := kernels.GaussSeidel(64, T)
		line, err := k.FindLine("@i-loop")
		if err != nil {
			t.Fatal(err)
		}
		analyze := func() {
			regs, err := pipeline.AnalyzeSourceCtx(context.Background(), k.Name+".c", k.Source, line, 0,
				ddg.Options{}, core.Options{Workers: 1}, core.Budget{})
			if err != nil || len(regs) != 1 {
				t.Fatalf("T=%d: %d regions, err %v", T, len(regs), err)
			}
		}
		analyze() // warm the pools
		return peakLiveBytes(analyze)
	}
	small, large := peak(steps), peak(4*steps)
	t.Logf("heap peak above baseline: T=%d %d B, T=%d %d B (%.2f×)", steps, small, 4*steps, large, float64(large)/float64(max(small, 1)))
	if float64(large) > 1.5*float64(small) {
		t.Fatalf("instance-0 heap peak grew %.2f× for 4× program length: %d B at T=%d vs %d B at T=%d",
			float64(large)/float64(max(small, 1)), large, 4*steps, small, steps)
	}
}

// TestRelaxReductionsHeldEventsCharged: the events RelaxReductions holds
// for a region's replay are charged to MaxAnalysisBytes chunk by chunk,
// the whole run (line 0) included.
// Under a budget only the long last region exceeds, that region alone
// fails with ErrResourceLimit before its events are all held, every other
// region's report is byte-identical to the unbudgeted run, and the
// retained-event peak stops growing at the budget instead of reaching the
// long region's length.
func TestRelaxReductionsHeldEventsCharged(t *testing.T) {
	const src = `
double s;
void main() {
  int t; int i; int n;
  for (t = 0; t < 4; t++) {
    n = 40;
    if (t == 3) { n = 8000; }
    for (i = 0; i < n; i++) { s = s * 0.5 + 1.0; }
  }
}
`
	const loopLine = 8
	mod, err := pipeline.Compile("held.c", src)
	if err != nil {
		t.Fatal(err)
	}
	run := func(budget int64) ([]pipeline.RegionReport, error, int64) {
		rec := obs.New()
		copts := core.Options{Workers: 2, RelaxReductions: true, Budget: core.Budget{MaxAnalysisBytes: budget}}
		_, regs, err := pipeline.AnalyzeLoopRegionsLiveCtx(obs.WithRecorder(context.Background(), rec), mod, loopLine, ddg.Options{}, copts, core.Budget{})
		return regs, err, rec.Get(obs.ScanPeakRetainedEvents)
	}
	free, err, freePeak := run(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(free) != 4 {
		t.Fatalf("test setup: %d regions, want 4", len(free))
	}
	long := int64(free[3].Events)
	const budget = 256 << 10 // 4096 held events at 64 bytes each
	if long*64 < 8*budget || int64(free[2].Events)*64 > budget {
		t.Fatalf("test setup: regions of %d and %d events against a %d-byte budget", free[2].Events, long, budget)
	}
	got, err, peak := run(budget)
	if !errors.Is(err, core.ErrResourceLimit) || !errors.Is(got[3].Err, core.ErrResourceLimit) {
		t.Fatalf("summary error %v, last region error %v: want ErrResourceLimit", err, got[3].Err)
	}
	for i := 0; i < 3; i++ {
		if got[i].Err != nil || got[i].Report.String() != free[i].Report.String() {
			t.Fatalf("region %d changed under the budget (err %v)", i, got[i].Err)
		}
	}
	t.Logf("retained peak: %d events unbudgeted, %d under a %d-byte budget (long region %d events)", freePeak, peak, budget, long)
	if freePeak < long || peak >= long/2 {
		t.Fatalf("retained peak %d under the budget (unbudgeted %d) did not stop short of the %d-event region", peak, freePeak, long)
	}

	// The whole run (line 0) is one region: the same budget fails it, and
	// unbudgeted it matches the analysis of the held trace.
	whole := func(budget int64) ([]pipeline.RegionReport, error) {
		copts := core.Options{RelaxReductions: true, Budget: core.Budget{MaxAnalysisBytes: budget}}
		_, regs, err := pipeline.AnalyzeLoopRegionsLiveCtx(context.Background(), mod, 0, ddg.Options{}, copts, core.Budget{})
		return regs, err
	}
	if _, err := whole(budget); !errors.Is(err, core.ErrResourceLimit) {
		t.Fatalf("whole run under the budget: error %v, want ErrResourceLimit", err)
	}
	regs, err := whole(0)
	if err != nil || len(regs) != 1 {
		t.Fatalf("whole run: %d regions, err %v", len(regs), err)
	}
	_, tr, err := testprog.Trace(mod)
	if err != nil {
		t.Fatal(err)
	}
	want, err := pipeline.AnalyzeRegion(context.Background(), tr, ddg.Options{}, core.Options{RelaxReductions: true})
	if err != nil {
		t.Fatal(err)
	}
	if regs[0].Events != tr.Len() || regs[0].Report.String() != want.String() {
		t.Fatal("live whole-run relaxed analysis differs from the held trace's")
	}
}

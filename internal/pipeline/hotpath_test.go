package pipeline_test

// Differential battery for the interpreter's dispatch engine: the
// precompiled-plan dispatcher must be invisible in every output. The
// legacy switch-loop dispatcher (interp.Config.Oracle) is driven directly:
// its trace, execution summary, error texts, and counters must equal the
// plan's, and every pipeline output is a function of those — so random
// programs analyzed from the oracle's trace must equal the fused live
// pipeline (plan dispatch) at every worker count. The stream kernel's shadow-memory axis of the same matrix runs in
// internal/core, whose test hooks select the map shadow.

import (
	"context"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"github.com/example/vectrace/internal/core"
	"github.com/example/vectrace/internal/ddg"
	"github.com/example/vectrace/internal/interp"
	"github.com/example/vectrace/internal/ir"
	"github.com/example/vectrace/internal/obs"
	"github.com/example/vectrace/internal/pipeline"
	"github.com/example/vectrace/internal/testprog"
	"github.com/example/vectrace/internal/trace"
)

// renderHotRegions flattens RegionReports into the exact text `vectrace
// analyze -instance -1` prints, so the comparison pins the golden bytes and
// not only the struct values.
func renderHotRegions(regs []pipeline.RegionReport) string {
	var b strings.Builder
	for _, rr := range regs {
		fmt.Fprintf(&b, "== region %d: %d events ==\n", rr.Index, rr.Events)
		if rr.Err != nil {
			fmt.Fprintf(&b, "error: %v\n", rr.Err)
			continue
		}
		b.WriteString(rr.Report.String())
	}
	return b.String()
}

// oracleTrace executes mod's main function on the legacy switch-loop
// dispatcher under full instrumentation, with the pipeline's tracing
// configuration otherwise.
func oracleTrace(ctx context.Context, mod *ir.Module, budget core.Budget) (*interp.Result, []trace.Event, error) {
	sink := &interp.TraceSink{}
	m := interp.New(mod, interp.Config{
		Oracle: true, Tracer: sink, CountLoopCycles: true,
		MaxSteps: budget.MaxSteps, MaxDepth: budget.MaxDepth, StackSize: budget.MaxStackBytes,
	})
	res, err := m.RunContext(ctx, "main")
	if err != nil {
		return nil, nil, err
	}
	events := make([]trace.Event, len(sink.Events))
	for i, ev := range sink.Events {
		events[i] = trace.Event{ID: ev.ID, Addr: ev.Addr}
	}
	return res, events, nil
}

// TestHotPathDifferentialMatrix is the headline equivalence proof for the
// plan dispatcher: for random programs the oracle dispatcher's trace and
// execution summary equal the plan's, and for every loop and every worker
// count the fused live pipeline returns an execution
// summary and RegionReports deeply equal to the sequential analysis of the
// oracle's trace.
func TestHotPathDifferentialMatrix(t *testing.T) {
	workerAxis := []int{1, 4, runtime.GOMAXPROCS(0)}
	const programs = 3
	for seed := int64(900); seed < 900+programs; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			src := testprog.Random(seed)
			mod, err := pipeline.Compile(fmt.Sprintf("hot%d.c", seed), src)
			if err != nil {
				t.Fatalf("compile failed:\n%s\nerror: %v", src, err)
			}
			ores, oevents, err := oracleTrace(context.Background(), mod, core.Budget{})
			if err != nil {
				t.Fatalf("oracle dispatch failed: %v", err)
			}
			pres, ptr, err := pipeline.TraceCtxOpts(context.Background(), mod, core.Budget{}, core.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(pres, ores) || !reflect.DeepEqual(ptr.Events, oevents) {
				t.Fatalf("plan dispatch trace or execution summary diverges from the oracle\nprogram:\n%s", src)
			}
			dopts := ddg.Options{}
			for _, line := range testprog.LoopLines(mod) {
				oopts := core.Options{Workers: 1}
				oregs, err := pipeline.AnalyzeLoopRegionsStreamCtx(context.Background(), mod,
					&trace.SliceSource{Events: oevents}, line, dopts, oopts)
				if err != nil {
					t.Fatalf("line %d: oracle-trace analysis failed: %v", line, err)
				}
				golden := renderHotRegions(oregs)
				for _, workers := range workerAxis {
					copts := core.Options{Workers: workers}
					res, regs, err := pipeline.AnalyzeLoopRegionsLiveCtx(context.Background(), mod, line, dopts, copts, core.Budget{})
					label := fmt.Sprintf("line %d workers=%d", line, workers)
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					if !reflect.DeepEqual(res, ores) {
						t.Fatalf("%s: execution summary diverges from the oracle", label)
					}
					if !reflect.DeepEqual(regs, oregs) {
						t.Fatalf("%s: region reports diverge from the oracle\nprogram:\n%s", label, src)
					}
					if got := renderHotRegions(regs); got != golden {
						t.Fatalf("%s: rendered report text diverges from the oracle", label)
					}
				}
			}
		})
	}
}

// TestHotPathErrorTextParity pins the error surface: a budget exhausted by
// the interpreter must produce byte-identical error text under both
// dispatch engines, and a per-region analysis budget failure must degrade
// byte-identically whichever engine produced the trace.
func TestHotPathErrorTextParity(t *testing.T) {
	mod, err := pipeline.Compile("fault.c", testprog.Fault)
	if err != nil {
		t.Fatal(err)
	}

	t.Run("interp-step-limit", func(t *testing.T) {
		budget := core.Budget{MaxSteps: 100}
		_, _, oErr := oracleTrace(context.Background(), mod, budget)
		_, _, pErr := pipeline.TraceCtxOpts(context.Background(), mod, budget, core.Options{})
		if oErr == nil || pErr == nil {
			t.Fatalf("step limit of %d not enforced: oracle %v, plan %v", budget.MaxSteps, oErr, pErr)
		}
		if oErr.Error() != pErr.Error() {
			t.Fatalf("step-limit error text differs:\noracle: %s\nplan:   %s", oErr, pErr)
		}
	})

	t.Run("analysis-budget", func(t *testing.T) {
		copts := core.Options{Workers: 1, Budget: core.Budget{MaxAnalysisBytes: 256}}
		_, oevents, err := oracleTrace(context.Background(), mod, core.Budget{})
		if err != nil {
			t.Fatal(err)
		}
		oregs, oErr := pipeline.AnalyzeLoopRegionsStreamCtx(context.Background(), mod,
			&trace.SliceSource{Events: oevents}, testprog.FaultInnerLine, ddg.Options{}, copts)
		_, pregs, pErr := pipeline.AnalyzeLoopRegionsLiveCtx(context.Background(), mod,
			testprog.FaultInnerLine, ddg.Options{}, copts, core.Budget{})
		if oErr == nil || pErr == nil {
			t.Fatalf("%d-byte analysis budget not enforced: oracle %v, plan %v", copts.Budget.MaxAnalysisBytes, oErr, pErr)
		}
		oracle := renderHotRegions(oregs) + "\nsummary: " + oErr.Error()
		plan := renderHotRegions(pregs) + "\nsummary: " + pErr.Error()
		if oracle != plan {
			t.Fatalf("budget degradation differs between dispatchers:\noracle:\n%s\nplan:\n%s", oracle, plan)
		}
	})
}

// TestHotPathCounterContract runs both dispatchers under fresh recorders
// and checks (a) the counters they share — interpreter steps and stack
// high-water mark — are identical, and (b) interp_batched_events diverges
// exactly as documented: positive on the plan dispatcher, zero on the
// oracle.
func TestHotPathCounterContract(t *testing.T) {
	mod, err := pipeline.Compile("fault.c", testprog.Fault)
	if err != nil {
		t.Fatal(err)
	}
	oldRec, newRec := obs.New(), obs.New()
	if _, _, err := oracleTrace(obs.WithRecorder(context.Background(), oldRec), mod, core.Budget{}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := pipeline.TraceCtxOpts(obs.WithRecorder(context.Background(), newRec), mod, core.Budget{}, core.Options{}); err != nil {
		t.Fatal(err)
	}
	for _, ctr := range []obs.Counter{obs.InterpSteps, obs.InterpStackBytes} {
		if n, o := newRec.Get(ctr), oldRec.Get(ctr); n != o {
			t.Errorf("counter %s: plan dispatch %d, oracle %d", ctr.Name(), n, o)
		}
	}
	if got := newRec.Get(obs.InterpBatchedEvents); got == 0 {
		t.Error("plan dispatch delivered no batched events")
	}
	if got := oldRec.Get(obs.InterpBatchedEvents); got != 0 {
		t.Errorf("oracle dispatch recorded %d batched events, want 0", got)
	}
}

// TestHotPathPlanReuseAcrossPipeline checks repeated runs at the pipeline
// layer: two traced executions of one module must agree event for event
// (the second run reuses the pooled TraceSink backing).
func TestHotPathPlanReuseAcrossPipeline(t *testing.T) {
	mod, err := pipeline.Compile("fault.c", testprog.Fault)
	if err != nil {
		t.Fatal(err)
	}
	res1, tr1, err := pipeline.TraceCtxOpts(context.Background(), mod, core.Budget{}, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	res2, tr2, err := pipeline.TraceCtxOpts(context.Background(), mod, core.Budget{}, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res1, res2) || !reflect.DeepEqual(tr1.Events, tr2.Events) {
		t.Fatal("repeated traced runs of one module disagree")
	}
}

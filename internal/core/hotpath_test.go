package core_test

// Differential battery for the stream kernel's paged shadow memory, run end
// to end through the pipeline's region fan-outs: the paged shadow must be
// invisible in every output. Random programs run through the fully fused
// live pipeline with the paged shadow and with the map-backed reference
// (selected by core.WithMapShadow) × worker count, and each
// combination's execution summary, RegionReports, and rendered report text
// must be deeply equal to the sequential map-shadow run. Error surfaces
// (analysis budgets), the RunStats counter contract, and the allocation
// gate against the map are pinned the same way. The dispatch axis of the
// same matrix runs in internal/pipeline.

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"github.com/example/vectrace/internal/core"
	"github.com/example/vectrace/internal/ddg"
	"github.com/example/vectrace/internal/obs"
	"github.com/example/vectrace/internal/pipeline"
	"github.com/example/vectrace/internal/testprog"
	"github.com/example/vectrace/internal/trace"
)

// shadowCombos is the shadow axis of the engine matrix.
var shadowCombos = []struct {
	name    string
	mapShdw bool
}{
	{"paged", false},
	{"map", true},
}

// shadowOpts returns copts with the map shadow selected when mapShdw.
func shadowOpts(copts core.Options, mapShdw bool) core.Options {
	if mapShdw {
		return core.WithMapShadow(copts)
	}
	return copts
}

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

// TestHotPathDifferentialMatrix is the headline equivalence proof for the
// paged shadow: for random programs, every loop, both shadows, and every
// worker count, the fused live pipeline returns an
// execution summary and RegionReports deeply equal to the map-shadow
// reference run with sequential workers.
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
			dopts := ddg.Options{}
			for _, line := range testprog.LoopLines(mod) {
				oopts := core.WithMapShadow(core.Options{Workers: 1})
				ores, oregs, err := pipeline.AnalyzeLoopRegionsLiveCtx(context.Background(), mod, line, dopts, oopts, core.Budget{})
				if err != nil {
					t.Fatalf("line %d: map-shadow reference failed: %v", line, err)
				}
				golden := renderHotRegions(oregs)
				for _, combo := range shadowCombos {
					for _, workers := range workerAxis {
						copts := shadowOpts(core.Options{Workers: workers}, combo.mapShdw)
						res, regs, err := pipeline.AnalyzeLoopRegionsLiveCtx(context.Background(), mod, line, dopts, copts, core.Budget{})
						label := fmt.Sprintf("line %d %s workers=%d", line, combo.name, workers)
						if err != nil {
							t.Fatalf("%s: %v", label, err)
						}
						if !reflect.DeepEqual(res, ores) {
							t.Fatalf("%s: execution summary diverges from the reference", label)
						}
						if !reflect.DeepEqual(regs, oregs) {
							t.Fatalf("%s: region reports diverge from the reference\nprogram:\n%s", label, src)
						}
						if got := renderHotRegions(regs); got != golden {
							t.Fatalf("%s: rendered report text diverges from the reference", label)
						}
					}
				}
			}
		})
	}
}

// TestHotPathErrorTextParity pins the error surface: a per-region analysis
// budget failure must produce byte-identical degradation under both shadow
// implementations.
func TestHotPathErrorTextParity(t *testing.T) {
	mod, err := pipeline.Compile("fault.c", testprog.Fault)
	if err != nil {
		t.Fatal(err)
	}

	t.Run("analysis-budget", func(t *testing.T) {
		budget := core.Budget{MaxAnalysisBytes: 256}
		var rendered []string
		for _, mapShdw := range []bool{true, false} {
			copts := shadowOpts(core.Options{Workers: 1, Budget: budget}, mapShdw)
			_, regs, err := pipeline.AnalyzeLoopRegionsLiveCtx(context.Background(), mod,
				testprog.FaultInnerLine, ddg.Options{}, copts, core.Budget{})
			if err == nil {
				t.Fatalf("mapShadow=%v: %d-byte analysis budget not enforced", mapShdw, budget.MaxAnalysisBytes)
			}
			rendered = append(rendered, renderHotRegions(regs)+"\nsummary: "+err.Error())
		}
		if rendered[0] != rendered[1] {
			t.Fatalf("budget degradation differs between shadows:\nmap:\n%s\npaged:\n%s", rendered[0], rendered[1])
		}
	})
}

// shadowCounterParity are the RunStats counters that must not depend on the
// shadow representation: the region lifecycle, the graph size, the
// analysis output, and the interpreter's steps.
var shadowCounterParity = []obs.Counter{
	obs.InterpSteps,
	obs.RegionsScanned,
	obs.RegionsStarted,
	obs.RegionsCompleted,
	obs.RegionsFailed,
	obs.DDGNodes,
	obs.DDGEdges,
	obs.CandidatesAnalyzed,
	obs.TilesDispatched,
	obs.PartitionsEmitted,
	obs.UnitVecOps,
	obs.NonUnitVecOps,
	obs.ShadowPeakLiveAddresses,
}

// TestHotPathCounterContract runs the fused live pipeline under fresh
// recorders with the paged and the map shadow and checks (a) the shared
// RunStats counters are identical, and (b) shadow_pages_touched diverges
// exactly as documented: positive on the paged shadow, zero on the map.
func TestHotPathCounterContract(t *testing.T) {
	mod, err := pipeline.Compile("fault.c", testprog.Fault)
	if err != nil {
		t.Fatal(err)
	}
	run := func(copts core.Options) *obs.Recorder {
		rec := obs.New()
		ctx := obs.WithRecorder(context.Background(), rec)
		if _, _, err := pipeline.AnalyzeLoopRegionsLiveCtx(ctx, mod, testprog.FaultInnerLine, ddg.Options{}, copts, core.Budget{}); err != nil {
			t.Fatal(err)
		}
		return rec
	}
	newRec := run(core.Options{Workers: 2})
	oldRec := run(core.WithMapShadow(core.Options{Workers: 2}))
	for _, ctr := range shadowCounterParity {
		if n, o := newRec.Get(ctr), oldRec.Get(ctr); n != o {
			t.Errorf("counter %s: paged shadow %d, map %d", ctr.Name(), n, o)
		}
	}
	if got := newRec.Get(obs.ShadowPagesTouched); got == 0 {
		t.Error("paged shadow touched no pages")
	}
	if got := oldRec.Get(obs.ShadowPagesTouched); got != 0 {
		t.Errorf("map shadow recorded %d touched pages, want 0", got)
	}
}

// TestPagedShadowAllocsBeatMap extends the VECTRACE_MEM_SMOKE gate to the
// paged shadow memory: on the same streamed analysis, the paged path (whose
// pages are epoch-reset and pooled across regions) must not allocate more
// bytes per run than the legacy map shadow, which rebuilds its buckets
// every region. A paged-shadow change that quietly loses the freelist or
// re-zeroes pages per region shows up as an allocation regression here.
func TestPagedShadowAllocsBeatMap(t *testing.T) {
	if os.Getenv("VECTRACE_MEM_SMOKE") == "" {
		t.Skip("set VECTRACE_MEM_SMOKE=1 to run the memory-regression smoke")
	}
	mod, err := pipeline.Compile("smoke.c", testprog.BudgetDemo(16000))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := pipeline.Record(mod, &buf); err != nil {
		t.Fatal(err)
	}
	encoded := buf.Bytes()
	measure := func(copts core.Options) float64 {
		res := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				dec := trace.NewDecoder(bytes.NewReader(encoded))
				if _, err := pipeline.AnalyzeLoopRegionsStreamCtx(context.Background(), mod, dec, testprog.BudgetDemoLoopLine, ddg.Options{}, copts); err != nil {
					b.Fatal(err)
				}
			}
		})
		return float64(res.AllocedBytesPerOp())
	}
	paged := measure(core.Options{Workers: 1})
	mapped := measure(core.WithMapShadow(core.Options{Workers: 1}))
	t.Logf("alloc B/op: paged %.0f, map %.0f (%.2f×)", paged, mapped, paged/mapped)
	// 10% headroom absorbs benchmark jitter; the expected steady state is
	// paged ≤ map (pages are pooled, map buckets are not).
	if paged > 1.1*mapped {
		t.Fatalf("paged shadow allocates %.2f× the map shadow (%.0f vs %.0f B/op) — page pooling regressed",
			paged/mapped, paged, mapped)
	}
}

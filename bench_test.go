package vectrace

// The benchmark harness regenerates every table and figure of the paper's
// evaluation (§4) under `go test -bench`, and additionally measures the two
// engineering claims of §4.1: instrumentation overhead relative to
// uninstrumented execution, and per-DDG-node analysis cost.
//
// Run everything with:
//
//	go test -bench=. -benchmem
//
// Each table/figure benchmark reports domain metrics (speedups, percentages)
// via b.ReportMetric, so `-bench` output doubles as a compact reproduction
// record.

import (
	"context"
	"fmt"
	"math"
	"testing"

	"github.com/example/vectrace/internal/baseline"
	"github.com/example/vectrace/internal/core"
	"github.com/example/vectrace/internal/ddg"
	"github.com/example/vectrace/internal/interp"
	"github.com/example/vectrace/internal/ir"
	"github.com/example/vectrace/internal/kernels"
	"github.com/example/vectrace/internal/obs"
	"github.com/example/vectrace/internal/opt"
	"github.com/example/vectrace/internal/pipeline"
	"github.com/example/vectrace/internal/report"
	"github.com/example/vectrace/internal/staticvec"
	"github.com/example/vectrace/internal/trace"
)

// BenchmarkFigure1 regenerates the Figure 1 comparison (Algorithm 1 vs
// Kumar critical-path partitioning on Listing 1).
func BenchmarkFigure1(b *testing.B) {
	var rows []report.FigureRow
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = report.Figure1(16)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		if r.Analysis == "Algorithm 1" && r.Statement == "S2" {
			b.ReportMetric(float64(r.Partitions), "S2-partitions")
			b.ReportMetric(r.AvgSize, "S2-avg-size")
		}
	}
}

// BenchmarkFigure2 regenerates the Figure 2 comparison (Algorithm 1 vs
// Larus loop-level partitioning on Listing 2).
func BenchmarkFigure2(b *testing.B) {
	var rows []report.FigureRow
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = report.Figure2(16)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		if r.Statement == "S1" {
			switch r.Analysis {
			case "Algorithm 1":
				b.ReportMetric(float64(r.Partitions), "alg1-S1-partitions")
			case "Larus":
				b.ReportMetric(float64(r.Partitions), "larus-S1-partitions")
			}
		}
	}
}

// BenchmarkTable1 regenerates the full SPEC hot-loop characterization.
func BenchmarkTable1(b *testing.B) {
	var rows []report.T1Row
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = report.Table1()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(rows)), "loops")
}

// BenchmarkTable2 regenerates the stand-alone kernel characterization.
func BenchmarkTable2(b *testing.B) {
	var rows []report.T2Row
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = report.Table2()
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		if r.Benchmark == "2-D PDE Grid Solver" {
			b.ReportMetric(r.UnitPct, "pde-unit-vec-pct")
		}
	}
}

// BenchmarkTable3 regenerates the UTDSP array-vs-pointer comparison.
func BenchmarkTable3(b *testing.B) {
	var rows []report.T3Row
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = report.Table3()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(rows)), "rows")
}

// BenchmarkTable4 regenerates the case-study speedups and reports the
// geometric-mean modeled speedup across studies and machines.
func BenchmarkTable4(b *testing.B) {
	var rows []report.T4Row
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = report.Table4()
		if err != nil {
			b.Fatal(err)
		}
	}
	prod := 1.0
	for _, r := range rows {
		prod *= r.Speedup
	}
	if len(rows) > 0 {
		b.ReportMetric(math.Pow(prod, 1/float64(len(rows))), "geomean-speedup")
	}
}

// BenchmarkInstrumentationOverhead measures tracing cost: the §4.1 claim is
// that instrumentation costs two to three orders of magnitude; an
// in-process interpreter pays far less, and the benchmark records the
// actual ratio.
func BenchmarkInstrumentationOverhead(b *testing.B) {
	k := kernels.GaussSeidel(32, 2)
	mod, err := pipeline.Compile(k.Name+".c", k.Source)
	if err != nil {
		b.Fatal(err)
	}

	b.Run("plain", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := pipeline.Run(mod, false); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("traced", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := pipeline.Trace(mod); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkDDGBuild measures DDG construction throughput.
func BenchmarkDDGBuild(b *testing.B) {
	k := kernels.GaussSeidel(32, 2)
	mod, err := pipeline.Compile(k.Name+".c", k.Source)
	if err != nil {
		b.Fatal(err)
	}
	_, tr, err := pipeline.Trace(mod)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ddg.Build(tr); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(tr.Events)), "nodes")
}

// BenchmarkDDGAnalysisPerNode measures the §4.1 analysis-cost claim
// ("typically of the order of tens to hundreds of microseconds per DDG
// node" for the paper's unoptimized prototype — ours is far cheaper and the
// metric records it).
func BenchmarkDDGAnalysisPerNode(b *testing.B) {
	k := kernels.GaussSeidel(24, 2)
	mod, err := pipeline.Compile(k.Name+".c", k.Source)
	if err != nil {
		b.Fatal(err)
	}
	_, tr, err := pipeline.Trace(mod)
	if err != nil {
		b.Fatal(err)
	}
	g, err := ddg.Build(tr)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.Analyze(g, core.Options{})
	}
	b.StopTimer()
	nsPerNode := float64(b.Elapsed().Nanoseconds()) / float64(b.N) / float64(g.NumNodes())
	b.ReportMetric(nsPerNode, "ns/node")
}

// BenchmarkAnalyzeParallel measures the concurrent analysis scheduler on a
// Table-1-scale graph at 1, 2, 4, and 8 workers. Workers=1 is the
// sequential oracle; the speedup of the other settings is bounded by the
// machine's core count (on a single-core host all settings converge).
func BenchmarkAnalyzeParallel(b *testing.B) {
	k := kernels.GaussSeidel(32, 2)
	mod, err := pipeline.Compile(k.Name+".c", k.Source)
	if err != nil {
		b.Fatal(err)
	}
	_, tr, err := pipeline.Trace(mod)
	if err != nil {
		b.Fatal(err)
	}
	g, err := ddg.Build(tr)
	if err != nil {
		b.Fatal(err)
	}
	candidates := len(g.CandidateInstances())
	for _, w := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				core.Analyze(g, core.Options{Workers: w})
			}
			b.ReportMetric(float64(candidates), "candidates")
		})
	}
}

// BenchmarkObservabilityOverhead bounds the cost of the obs hooks threaded
// through the analysis (DESIGN.md §11). "off" runs with no recorder on the
// context — every hook reduces to its nil-check branch, and the contract is
// that this stays within 2% of BenchmarkAnalyzeParallel (the same sweep
// from before the hooks existed). "on" attaches a live recorder and
// measures the full counter/span cost of an observed run.
func BenchmarkObservabilityOverhead(b *testing.B) {
	k := kernels.GaussSeidel(32, 2)
	mod, err := pipeline.Compile(k.Name+".c", k.Source)
	if err != nil {
		b.Fatal(err)
	}
	_, tr, err := pipeline.Trace(mod)
	if err != nil {
		b.Fatal(err)
	}
	g, err := ddg.Build(tr)
	if err != nil {
		b.Fatal(err)
	}
	opts := core.Options{Workers: 4}
	b.Run("off", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := core.AnalyzeCtx(context.Background(), g, opts); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("on", func(b *testing.B) {
		b.ReportAllocs()
		ctx := obs.WithRecorder(context.Background(), obs.New())
		for i := 0; i < b.N; i++ {
			if _, err := core.AnalyzeCtx(ctx, g, opts); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkTimestamps measures one Algorithm 1 sweep.
func BenchmarkTimestamps(b *testing.B) {
	k := kernels.Listing1(64)
	mod, err := pipeline.Compile(k.Name+".c", k.Source)
	if err != nil {
		b.Fatal(err)
	}
	_, tr, err := pipeline.Trace(mod)
	if err != nil {
		b.Fatal(err)
	}
	g, err := ddg.Build(tr)
	if err != nil {
		b.Fatal(err)
	}
	ids := mod.CandidateIDs(-1)
	if len(ids) == 0 {
		b.Fatal("no candidates")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.Timestamps(g, ids[i%len(ids)], core.Options{})
	}
}

// BenchmarkKumarBaseline measures the whole-graph critical-path analysis.
func BenchmarkKumarBaseline(b *testing.B) {
	k := kernels.Listing1(64)
	mod, err := pipeline.Compile(k.Name+".c", k.Source)
	if err != nil {
		b.Fatal(err)
	}
	_, tr, err := pipeline.Trace(mod)
	if err != nil {
		b.Fatal(err)
	}
	g, err := ddg.Build(tr)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		baseline.Kumar(g)
	}
}

// BenchmarkReductionAblation measures the paper's future-work extension:
// analysis with reduction-carried dependences relaxed, on a dot-product
// kernel where the base analysis sees a serial chain. Each iteration runs
// the region through AnalyzeRegion's stream kernel in both settings (the
// relaxed one replays the region); it reports the unit-stride vectorizable
// percentage under both.
func BenchmarkReductionAblation(b *testing.B) {
	spec := kernels.SPEC()
	var sphinx kernels.SpecBenchmark
	for _, s := range spec {
		if s.Name == "482.sphinx3" {
			sphinx = s
		}
	}
	mod, _, tr, err := pipeline.CompileAndTrace(sphinx.Kernel.Name+".c", sphinx.Kernel.Source)
	if err != nil {
		b.Fatal(err)
	}
	_ = mod
	region, err := pipeline.LoopRegion(tr, sphinx.Kernel.LineOf("@dist"), 0)
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	var base, relaxed *core.Report
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if base, err = pipeline.AnalyzeRegion(ctx, region, ddg.Options{}, core.Options{}); err != nil {
			b.Fatal(err)
		}
		if relaxed, err = pipeline.AnalyzeRegion(ctx, region, ddg.Options{}, core.Options{RelaxReductions: true}); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(base.UnitVecOpsPct, "base-unit-pct")
	b.ReportMetric(relaxed.UnitVecOpsPct, "relaxed-unit-pct")
}

// BenchmarkDependenceCategoryAblation measures the cost of the optional
// dependence categories (§3: anti/output and control edges can be added
// without changing the analyses).
func BenchmarkDependenceCategoryAblation(b *testing.B) {
	k := kernels.GaussSeidel(24, 2)
	mod, err := pipeline.Compile(k.Name+".c", k.Source)
	if err != nil {
		b.Fatal(err)
	}
	_, tr, err := pipeline.Trace(mod)
	if err != nil {
		b.Fatal(err)
	}
	for _, cfg := range []struct {
		name string
		opts ddg.Options
	}{
		{"flow-only", ddg.Options{}},
		{"anti-output", ddg.Options{IncludeAntiOutput: true}},
		{"control", ddg.Options{IncludeControl: true}},
		{"all", ddg.Options{IncludeAntiOutput: true, IncludeControl: true}},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				g, err := ddg.BuildOpts(tr, cfg.opts)
				if err != nil {
					b.Fatal(err)
				}
				core.Analyze(g, core.Options{})
			}
		})
	}
}

// BenchmarkAnalysisScaling measures analysis cost growth with trace size
// (the per-node cost should stay near-constant: the sweep is linear per
// candidate instruction).
func BenchmarkAnalysisScaling(b *testing.B) {
	for _, n := range []int{16, 32, 64} {
		k := kernels.Listing1(n)
		mod, err := pipeline.Compile(k.Name+".c", k.Source)
		if err != nil {
			b.Fatal(err)
		}
		_, tr, err := pipeline.Trace(mod)
		if err != nil {
			b.Fatal(err)
		}
		g, err := ddg.Build(tr)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("N%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				core.Analyze(g, core.Options{})
			}
			b.ReportMetric(float64(g.NumNodes()), "nodes")
		})
	}
}

// BenchmarkLarusBaseline measures the loop-level model.
func BenchmarkLarusBaseline(b *testing.B) {
	k := kernels.Listing2(64)
	mod, err := pipeline.Compile(k.Name+".c", k.Source)
	if err != nil {
		b.Fatal(err)
	}
	_, tr, err := pipeline.Trace(mod)
	if err != nil {
		b.Fatal(err)
	}
	lm := mod.LoopByLine(k.LineOf("@main-loop"))
	regions := tr.Regions(lm.ID)
	g, err := ddg.Build(tr.Slice(regions[0]))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		baseline.Larus(g, lm.ID)
	}
}

// BenchmarkStaticVectorizer measures the icc stand-in over the full SPEC
// kernel suite.
func BenchmarkStaticVectorizer(b *testing.B) {
	var mods []*ir.Module
	for _, s := range kernels.SPEC() {
		mod, err := pipeline.Compile(s.Kernel.Name+".c", s.Kernel.Source)
		if err != nil {
			b.Fatal(err)
		}
		mods = append(mods, mod)
	}
	b.ResetTimer()
	verdicts := 0
	for i := 0; i < b.N; i++ {
		verdicts = 0
		for _, mod := range mods {
			verdicts += len(staticvec.AnalyzeModule(mod))
		}
	}
	b.ReportMetric(float64(verdicts), "loops")
}

// BenchmarkRankOpportunities measures the §4.2 expert-assist pipeline.
func BenchmarkRankOpportunities(b *testing.B) {
	k := kernels.GaussSeidel(32, 2)
	var rows []report.Opportunity
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = report.RankKernel(k.Name+".c", k.Source, 10)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(rows)), "ranked-loops")
}

// BenchmarkTraceEncode and BenchmarkTraceDecode measure the on-disk trace
// codec.
func BenchmarkTraceEncode(b *testing.B) {
	k := kernels.GaussSeidel(32, 2)
	mod, err := pipeline.Compile(k.Name+".c", k.Source)
	if err != nil {
		b.Fatal(err)
	}
	_, tr, err := pipeline.Trace(mod)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(tr.Events)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := trace.Encode(discard{}, tr.Events); err != nil {
			b.Fatal(err)
		}
	}
}

type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }

// BenchmarkInterp measures raw interpreter throughput in
// instructions/second.
func BenchmarkInterp(b *testing.B) {
	k := kernels.GaussSeidel(48, 4)
	mod, err := pipeline.Compile(k.Name+".c", k.Source)
	if err != nil {
		b.Fatal(err)
	}
	var res *interp.Result
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err = pipeline.Run(mod, false)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if res != nil {
		b.ReportMetric(float64(res.Steps)*float64(b.N)/b.Elapsed().Seconds()/1e6, "Minstr/s")
	}
}

// BenchmarkOptimizer measures the optional VIR pass pipeline.
func BenchmarkOptimizer(b *testing.B) {
	k := kernels.GaussSeidel(32, 2)
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		mod, err := pipeline.Compile(k.Name+".c", k.Source)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		opt.Optimize(mod)
	}
}

// BenchmarkCompile measures front-end throughput over the whole SPEC kernel
// suite.
func BenchmarkCompile(b *testing.B) {
	suite := kernels.SPEC()
	b.ResetTimer()
	instrs := 0
	for i := 0; i < b.N; i++ {
		instrs = 0
		for _, s := range suite {
			mod, err := pipeline.Compile(s.Kernel.Name+".c", s.Kernel.Source)
			if err != nil {
				b.Fatal(err)
			}
			instrs += mod.NumInstrs
		}
	}
	b.ReportMetric(float64(instrs), "static-instrs")
}

// BenchmarkAnnotate measures the per-line report pipeline.
func BenchmarkAnnotate(b *testing.B) {
	k := kernels.GaussSeidel(24, 2)
	mod, err := pipeline.Compile(k.Name+".c", k.Source)
	if err != nil {
		b.Fatal(err)
	}
	_, tr, err := pipeline.Trace(mod)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := report.AnnotateSource(tr, core.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkControlRegularity measures the §4.4 future-work metric.
func BenchmarkControlRegularity(b *testing.B) {
	k := kernels.PDESolver(12, 3)
	mod, err := pipeline.Compile(k.Name+".c", k.Source)
	if err != nil {
		b.Fatal(err)
	}
	_, tr, err := pipeline.Trace(mod)
	if err != nil {
		b.Fatal(err)
	}
	lm := mod.LoopByLine(k.LineOf("@block-i"))
	b.ResetTimer()
	var r core.Regularity
	for i := 0; i < b.N; i++ {
		r = core.ControlRegularity(tr, lm.ID)
	}
	b.ReportMetric(r.ModalFraction, "modal-fraction")
}

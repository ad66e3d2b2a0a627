// Package report regenerates the paper's evaluation artifacts — Tables 1–4
// and Figures 1–2 — from the reproduction's kernels, returning structured
// rows plus text renderings in the paper's column layout.
package report

import (
	"context"
	"fmt"
	"strings"

	"sort"

	"github.com/example/vectrace/internal/baseline"
	"github.com/example/vectrace/internal/core"
	"github.com/example/vectrace/internal/ddg"
	"github.com/example/vectrace/internal/interp"
	"github.com/example/vectrace/internal/ir"
	"github.com/example/vectrace/internal/kernels"
	"github.com/example/vectrace/internal/pipeline"
	"github.com/example/vectrace/internal/profile"
	"github.com/example/vectrace/internal/simd"
	"github.com/example/vectrace/internal/staticvec"
	"github.com/example/vectrace/internal/trace"
)

// LoopAnalysis bundles everything the tables need about one analyzed loop.
type LoopAnalysis struct {
	PercentCycles  float64
	PercentPacked  float64
	AvgConcurrency float64
	UnitPct        float64
	UnitSize       float64
	NonUnitPct     float64
	NonUnitSize    float64
	Report         *core.Report
}

// RepresentativeReportCtx analyzes up to maxRegions dynamic executions of
// a loop and returns the median one (by candidate-operation count), the
// way the paper "randomly chose several instances of the loop, analyzed
// each corresponding subtrace ... and chose one representative subtrace to
// be included in the measurements". Sampling is deterministic: the first,
// middle, and last regions, covering warm-up and steady-state executions.
// ctx is threaded through the region fan-out and each region's analysis,
// so a deadline cuts the sampling short with an error wrapping
// core.ErrCanceled.
func RepresentativeReportCtx(ctx context.Context, tr *trace.Trace, loopID int, maxRegions int, opts core.Options) (*core.Report, error) {
	regions := tr.Regions(loopID)
	if len(regions) == 0 {
		return nil, fmt.Errorf("report: loop L%d never executed", loopID)
	}
	picks := []int{0}
	if len(regions) > 2 {
		picks = append(picks, len(regions)/2)
	}
	if len(regions) > 1 {
		picks = append(picks, len(regions)-1)
	}
	if len(picks) > maxRegions {
		picks = picks[:maxRegions]
	}
	// The sampled regions are independent; analyze them across
	// opts.WorkerCount() workers (each through the default one-pass route;
	// see pipeline.AnalyzeRegion), merging by pick index for determinism.
	reps := make([]*core.Report, len(picks))
	err := core.ParallelFor(ctx, len(picks), opts.WorkerCount(), func(i int) error {
		var err error
		reps[i], err = pipeline.AnalyzeRegion(ctx, tr.Slice(regions[picks[i]]), ddg.Options{}, opts)
		return err
	})
	if err != nil {
		return nil, err
	}
	sort.SliceStable(reps, func(i, j int) bool {
		return reps[i].TotalCandidateOps < reps[j].TotalCandidateOps
	})
	return reps[len(reps)/2], nil
}

// analyzeKernelLoop compiles, traces, profiles, and analyzes one marked loop
// of a kernel.
func analyzeKernelLoop(ctx context.Context, k kernels.Kernel, marker string, opts core.Options) (*LoopAnalysis, error) {
	mod, err := pipeline.Compile(k.Name+".c", k.Source)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", k.Name, err)
	}
	res, tr, err := pipeline.TraceCtxOpts(ctx, mod, core.Budget{}, opts)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", k.Name, err)
	}
	verdicts := staticvec.AnalyzeModule(mod)
	prof := profile.Build(mod, res, verdicts)

	line, err := k.FindLine(marker)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", k.Name, err)
	}
	lm := mod.LoopByLine(line)
	if lm == nil {
		return nil, fmt.Errorf("%s: no loop on line %d (marker %s)", k.Name, line, marker)
	}
	rep, err := RepresentativeReportCtx(ctx, tr, lm.ID, 3, opts)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", k.Name, err)
	}

	la := &LoopAnalysis{
		AvgConcurrency: rep.AvgConcurrency,
		UnitPct:        rep.UnitVecOpsPct,
		UnitSize:       rep.UnitAvgVecSize,
		NonUnitPct:     rep.NonUnitVecOpsPct,
		NonUnitSize:    rep.NonUnitAvgVecSize,
		Report:         rep,
	}
	if st := prof.Loop(lm.ID); st != nil {
		la.PercentCycles = st.PercentCycles
		la.PercentPacked = st.PercentPacked()
	}
	return la, nil
}

// ---------------------------------------------------------------- Table 1

// T1Row is one row of Table 1: a SPEC benchmark hot loop.
type T1Row struct {
	Benchmark string
	Loop      string
	LoopAnalysis
}

// Table1Ctx regenerates Table 1 over the SPEC-shaped kernel suite. Each
// row's kernel is compiled, traced, and analyzed independently, so the
// rows fan out across opts.WorkerCount() workers; results are merged by
// row index, keeping the table identical to a sequential regeneration.
// Cancellation is threaded through every row's trace and analysis.
func Table1Ctx(ctx context.Context, opts core.Options) ([]T1Row, error) {
	type job struct {
		bench, label, marker string
		kernel               kernels.Kernel
	}
	var jobs []job
	for _, b := range kernels.SPEC() {
		for _, target := range b.Targets {
			jobs = append(jobs, job{b.Name, target.Label, target.Marker, b.Kernel})
		}
	}
	rows := make([]T1Row, len(jobs))
	inner := opts
	inner.Workers = 1
	err := core.ParallelFor(ctx, len(jobs), opts.WorkerCount(), func(i int) error {
		la, err := analyzeKernelLoop(ctx, jobs[i].kernel, jobs[i].marker, inner)
		if err != nil {
			return err
		}
		rows[i] = T1Row{Benchmark: jobs[i].bench, Loop: jobs[i].label, LoopAnalysis: *la}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// RenderTable1 renders rows in the paper's column layout.
func RenderTable1(rows []T1Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-14s %-28s %8s %8s %12s | %8s %9s | %8s %9s\n",
		"Benchmark", "Loop", "Cycles%", "Packed%", "AvgConcur",
		"UVecOp%", "UVecSize", "NVecOp%", "NVecSize")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-14s %-28s %7.1f%% %7.1f%% %12.1f | %7.1f%% %9.1f | %7.1f%% %9.1f\n",
			r.Benchmark, r.Loop, r.PercentCycles, r.PercentPacked, r.AvgConcurrency,
			r.UnitPct, r.UnitSize, r.NonUnitPct, r.NonUnitSize)
	}
	return b.String()
}

// ---------------------------------------------------------------- Table 2

// T2Row is one row of Table 2: a stand-alone kernel.
type T2Row struct {
	Benchmark string
	LoopAnalysis
}

// Table2Ctx regenerates Table 2 — the 2-D Gauss-Seidel stencil and the
// 2-D PDE grid solver — fanning the two kernels out across
// opts.WorkerCount() workers, with cooperative cancellation.
func Table2Ctx(ctx context.Context, opts core.Options) ([]T2Row, error) {
	specs := []struct {
		name   string
		kernel kernels.Kernel
		marker string
	}{
		{"2-D Gauss-Seidel Stencil", kernels.GaussSeidel(32, 2), "@time-loop"},
		{"2-D PDE Grid Solver", kernels.PDESolver(16, 4), "@grid-j"},
	}
	rows := make([]T2Row, len(specs))
	inner := opts
	inner.Workers = 1
	err := core.ParallelFor(ctx, len(specs), opts.WorkerCount(), func(i int) error {
		la, err := analyzeKernelLoop(ctx, specs[i].kernel, specs[i].marker, inner)
		if err != nil {
			return err
		}
		rows[i] = T2Row{Benchmark: specs[i].name, LoopAnalysis: *la}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// RenderTable2 renders Table 2.
func RenderTable2(rows []T2Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-26s %8s %12s | %8s %9s | %8s %9s\n",
		"Benchmark", "Packed%", "AvgConcur", "UVecOp%", "UVecSize", "NVecOp%", "NVecSize")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-26s %7.1f%% %12.1f | %7.1f%% %9.1f | %7.1f%% %9.1f\n",
			r.Benchmark, r.PercentPacked, r.AvgConcurrency,
			r.UnitPct, r.UnitSize, r.NonUnitPct, r.NonUnitSize)
	}
	return b.String()
}

// ---------------------------------------------------------------- Table 3

// T3Row is one row of Table 3: one code style of one UTDSP kernel.
type T3Row struct {
	Benchmark string
	Style     string // "Array" or "Pointer"
	LoopAnalysis
}

// Table3Ctx regenerates Table 3 over the UTDSP pairs. The Array/Pointer
// variants of every pair are flattened into one job list and fanned out
// across opts.WorkerCount() workers, merged by job index, with cooperative
// cancellation.
func Table3Ctx(ctx context.Context, opts core.Options) ([]T3Row, error) {
	type job struct {
		bench, style string
		kernel       kernels.Kernel
	}
	var jobs []job
	for _, pair := range kernels.UTDSP() {
		jobs = append(jobs, job{pair.Name, "Array", pair.Array})
		jobs = append(jobs, job{pair.Name, "Pointer", pair.Pointer})
	}
	rows := make([]T3Row, len(jobs))
	inner := opts
	inner.Workers = 1
	err := core.ParallelFor(ctx, len(jobs), opts.WorkerCount(), func(i int) error {
		la, err := analyzeKernelLoop(ctx, jobs[i].kernel, "@hot", inner)
		if err != nil {
			return err
		}
		rows[i] = T3Row{Benchmark: jobs[i].bench, Style: jobs[i].style, LoopAnalysis: *la}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// RenderTable3 renders Table 3.
func RenderTable3(rows []T3Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-10s %-8s %8s %12s | %8s %9s | %8s %9s\n",
		"Benchmark", "Type", "Packed%", "AvgConcur", "UVecOp%", "UVecSize", "NVecOp%", "NVecSize")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-10s %-8s %7.1f%% %12.1f | %7.1f%% %9.1f | %7.1f%% %9.1f\n",
			r.Benchmark, r.Style, r.PercentPacked, r.AvgConcurrency,
			r.UnitPct, r.UnitSize, r.NonUnitPct, r.NonUnitSize)
	}
	return b.String()
}

// ---------------------------------------------------------------- Table 4

// T4Row is one case study × machine cell of Table 4.
type T4Row struct {
	Benchmark string
	Machine   string
	// OriginalTime and TransformedTime are modeled cycle totals for the
	// measured loop subtree.
	OriginalTime    float64
	TransformedTime float64
	Speedup         float64
}

// caseRun holds one executed case-study side.
type caseRun struct {
	mod      *ir.Module
	res      *interp.Result
	verdicts map[int]staticvec.Verdict
}

func runCase(ctx context.Context, k kernels.Kernel) (*caseRun, error) {
	mod, err := pipeline.Compile(k.Name+".c", k.Source)
	if err != nil {
		return nil, err
	}
	res, err := pipeline.RunCtx(ctx, mod, true, core.Budget{})
	if err != nil {
		return nil, err
	}
	return &caseRun{mod: mod, res: res, verdicts: staticvec.AnalyzeModule(mod)}, nil
}

// loopTimeAt prices the loop subtree rooted at the loop on the given line.
func (c *caseRun) loopTimeAt(line int, m simd.Machine) (float64, error) {
	lm := c.mod.LoopByLine(line)
	if lm == nil {
		return 0, fmt.Errorf("no loop on line %d", line)
	}
	return simd.LoopTime(c.mod, c.res, c.verdicts, m, lm.ID), nil
}

// Table4Ctx regenerates Table 4: for each §4.4 case study, the modeled
// time of the original and manually transformed versions on the three
// machines, with cooperative cancellation threaded through each case
// study's instrumented runs.
func Table4Ctx(ctx context.Context) ([]T4Row, error) {
	var rows []T4Row
	for _, cs := range kernels.CaseStudies() {
		orig, err := runCase(ctx, cs.Original)
		if err != nil {
			return nil, fmt.Errorf("%s original: %w", cs.Name, err)
		}
		tran, err := runCase(ctx, cs.Transformed)
		if err != nil {
			return nil, fmt.Errorf("%s transformed: %w", cs.Name, err)
		}
		origLine, err := cs.Original.FindLine(cs.HotMarker)
		if err != nil {
			return nil, fmt.Errorf("%s original: %w", cs.Name, err)
		}
		tranLine, err := cs.Transformed.FindLine(cs.HotMarker)
		if err != nil {
			return nil, fmt.Errorf("%s transformed: %w", cs.Name, err)
		}
		for _, m := range simd.Machines() {
			ot, err := orig.loopTimeAt(origLine, m)
			if err != nil {
				return nil, fmt.Errorf("%s original: %w", cs.Name, err)
			}
			tt, err := tran.loopTimeAt(tranLine, m)
			if err != nil {
				return nil, fmt.Errorf("%s transformed: %w", cs.Name, err)
			}
			rows = append(rows, T4Row{
				Benchmark: cs.Name, Machine: m.Name,
				OriginalTime: ot, TransformedTime: tt, Speedup: ot / tt,
			})
		}
	}
	return rows, nil
}

// RenderTable4 renders Table 4.
func RenderTable4(rows []T4Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-16s %-22s %14s %14s %9s\n",
		"Benchmark", "Machine", "OrigCycles", "TransCycles", "Speedup")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-16s %-22s %14.0f %14.0f %8.2fx\n",
			r.Benchmark, r.Machine, r.OriginalTime, r.TransformedTime, r.Speedup)
	}
	return b.String()
}

// ---------------------------------------------------------------- Figures

// FigureRow describes one analysis' partitioning of a statement's dynamic
// instances, for the Figure 1 / Figure 2 comparisons.
type FigureRow struct {
	Analysis   string // "Algorithm 1", "Kumar", "Larus"
	Statement  string // "S1" or "S2"
	Partitions int
	AvgSize    float64
	MaxSize    int
}

// Figure1 regenerates the Figure 1 comparison on Listing 1: Algorithm 1's
// partitions of S2 versus Kumar-style critical-path partitions.
func Figure1(n int) ([]FigureRow, error) {
	return figureRows(kernels.Listing1(n), map[string]string{"S1": "@S1", "S2": "@S2"}, "")
}

// Figure2 regenerates the Figure 2 comparison on Listing 2: Algorithm 1
// versus the Larus-style loop-level model.
func Figure2(n int) ([]FigureRow, error) {
	return figureRows(kernels.Listing2(n), map[string]string{"S1": "@S1", "S2": "@S2"}, "@main-loop")
}

// RenderFigure renders figure rows.
func RenderFigure(rows []FigureRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-14s %-6s %10s %9s %8s\n", "Analysis", "Stmt", "Partitions", "AvgSize", "MaxSize")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-14s %-6s %10d %9.1f %8d\n", r.Analysis, r.Statement, r.Partitions, r.AvgSize, r.MaxSize)
	}
	return b.String()
}

// tsGroups counts one statement's instances per timestamp: under any of
// the three analyses, the instances sharing a timestamp form a partition.
type tsGroups map[int32]int

func (g tsGroups) row(analysis, label string) FigureRow {
	row := FigureRow{Analysis: analysis, Statement: label, Partitions: len(g)}
	total := 0
	for _, n := range g {
		total += n
		row.MaxSize = max(row.MaxSize, n)
	}
	if len(g) > 0 {
		row.AvgSize = float64(total) / float64(len(g))
	}
	return row
}

// figureRows runs the kernel once, live: every event feeds the stream
// kernel (Algorithm 1) and Kumar's baseline, and the first region of the
// Larus loop (when larusMarker names one) feeds Larus' baseline. Each
// analysis' partitions of a labeled statement are its instances grouped by
// timestamp.
func figureRows(k kernels.Kernel, stmts map[string]string, larusMarker string) ([]FigureRow, error) {
	mod, err := pipeline.Compile(k.Name+".c", k.Source)
	if err != nil {
		return nil, err
	}

	// Resolve each labeled statement to its candidate instruction.
	instrOf := make(map[string]int32)
	for label, marker := range stmts {
		line, err := k.FindLine(marker)
		if err != nil {
			return nil, err
		}
		found := int32(-1)
		for _, id := range mod.CandidateIDs(-1) {
			if mod.InstrAt(id).Pos.Line == line {
				found = id
				break
			}
		}
		if found < 0 {
			return nil, fmt.Errorf("%s: no candidate instruction on line %d (%s)", k.Name, line, label)
		}
		instrOf[label] = found
	}
	labels := make([]string, 0, len(instrOf))
	for label := range instrOf {
		labels = append(labels, label)
	}
	sort.Strings(labels)
	// timed groups the labeled statements' instances by the time s gives.
	timed := func(s *baseline.Stream) map[int32]tsGroups {
		m := make(map[int32]tsGroups, len(instrOf))
		for _, id := range instrOf {
			m[id] = tsGroups{}
		}
		s.OnTime = func(id, t int32) {
			if g := m[id]; g != nil {
				g[t]++
			}
		}
		return m
	}

	ctx := context.Background()
	alg1 := core.AcquireStreamKernel(mod, ddg.Options{}, core.Options{}, nil)
	defer alg1.Release()
	kumar := baseline.NewKumar(mod)
	kumarTS := timed(kumar)
	var larus *trace.RegionFeed
	var larusTS map[int32]tsGroups
	var larusRun *baseline.Stream
	if larusMarker != "" {
		line, err := k.FindLine(larusMarker)
		if err != nil {
			return nil, err
		}
		lm := mod.LoopByLine(line)
		if lm == nil {
			return nil, fmt.Errorf("%s: no loop at %s", k.Name, larusMarker)
		}
		larus = trace.NewRegionFeed(ctx, mod, lm.ID, 0, func() trace.RegionSink {
			s := baseline.NewLarus(mod, lm.ID)
			groups := timed(s)
			s.OnClose = func(index int) {
				if index == 0 {
					larusTS, larusRun = groups, s
				}
			}
			return s
		})
	}
	_, err = pipeline.StreamCtx(ctx, mod, core.Budget{}, func(ev trace.Event) error {
		if err := alg1.Feed(ev.ID, ev.Addr); err != nil {
			return err
		}
		if kumar.Event(ev); larus != nil {
			return larus.Push(ev)
		}
		return nil
	})
	if err == nil {
		err = kumar.Err()
	}
	if err != nil {
		return nil, err
	}

	var rows []FigureRow
	for _, label := range labels {
		id := instrOf[label]
		parts := tsGroups{}
		for _, ts := range alg1.InstanceTimestamps(id) {
			parts[ts]++
		}
		rows = append(rows, parts.row("Algorithm 1", label), kumarTS[id].row("Kumar", label))
	}
	if larus != nil {
		if _, err := larus.Finish(); err != nil {
			return nil, err
		}
		if larusRun == nil {
			return nil, fmt.Errorf("%s: loop %s never ran", k.Name, larusMarker)
		}
		if err := larusRun.Err(); err != nil {
			return nil, err
		}
		for _, label := range labels {
			rows = append(rows, larusTS[instrOf[label]].row("Larus", label))
		}
	}
	return rows, nil
}

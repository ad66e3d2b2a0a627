package main

// The tables workload regenerates the paper's Tables 1-3 in-process, the
// way vecbench does, and checks every row against the golden files the
// report package's tests pin.

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"time"

	"github.com/example/vectrace/internal/core"
	"github.com/example/vectrace/internal/ddg"
	"github.com/example/vectrace/internal/kernels"
	"github.com/example/vectrace/internal/lower"
	"github.com/example/vectrace/internal/parser"
	"github.com/example/vectrace/internal/pipeline"
	"github.com/example/vectrace/internal/profile"
	"github.com/example/vectrace/internal/report"
	"github.com/example/vectrace/internal/sema"
	"github.com/example/vectrace/internal/staticvec"
)

// tableOpts runs every row on one worker: at two workers the table times
// are mostly scheduler noise.
var tableOpts = core.Options{Workers: 1}

// tableRow is one row of Tables 1-3 as the report package builds it: the
// identity columns plus the kernel and the marker of the analyzed loop.
type tableRow struct {
	bench, key string // key is Table 1's loop label or Table 3's style
	kernel     kernels.Kernel
	marker     string
}

// tableRows lists the rows of table n (1-3) in the report package's order.
// The traced pass replays them call by call; the golden check catches any
// drift between this list and the report package's own.
func tableRows(n int) []tableRow {
	var rows []tableRow
	switch n {
	case 1:
		for _, b := range kernels.SPEC() {
			for _, t := range b.Targets {
				rows = append(rows, tableRow{b.Name, t.Label, b.Kernel, t.Marker})
			}
		}
	case 2:
		rows = []tableRow{
			{"2-D Gauss-Seidel Stencil", "", kernels.GaussSeidel(32, 2), "@time-loop"},
			{"2-D PDE Grid Solver", "", kernels.PDESolver(16, 4), "@grid-j"},
		}
	case 3:
		for _, p := range kernels.UTDSP() {
			rows = append(rows, tableRow{p.Name, "Array", p.Array, "@hot"})
			rows = append(rows, tableRow{p.Name, "Pointer", p.Pointer, "@hot"})
		}
	}
	return rows
}

// fmtLA serializes one loop's metrics at full precision, in the line format
// of the report package's golden files.
func fmtLA(la report.LoopAnalysis) string {
	return fmt.Sprintf("cycles=%.6f packed=%.6f concur=%.6f unit=%.6f%%/%.6f nonunit=%.6f%%/%.6f",
		la.PercentCycles, la.PercentPacked, la.AvgConcurrency,
		la.UnitPct, la.UnitSize, la.NonUnitPct, la.NonUnitSize)
}

// goldenText renders table n's rows exactly as its golden file holds them:
// one full-precision line per row, a blank line, then the rendered table.
func goldenText(n int, las []report.LoopAnalysis) string {
	rows := tableRows(n)
	var b strings.Builder
	switch n {
	case 1:
		t := make([]report.T1Row, len(las))
		for i, la := range las {
			t[i] = report.T1Row{Benchmark: rows[i].bench, Loop: rows[i].key, LoopAnalysis: la}
			fmt.Fprintf(&b, "%s|%s|%s\n", rows[i].bench, rows[i].key, fmtLA(la))
		}
		b.WriteString("\n" + report.RenderTable1(t))
	case 2:
		t := make([]report.T2Row, len(las))
		for i, la := range las {
			t[i] = report.T2Row{Benchmark: rows[i].bench, LoopAnalysis: la}
			fmt.Fprintf(&b, "%s|%s\n", rows[i].bench, fmtLA(la))
		}
		b.WriteString("\n" + report.RenderTable2(t))
	case 3:
		t := make([]report.T3Row, len(las))
		for i, la := range las {
			t[i] = report.T3Row{Benchmark: rows[i].bench, Style: rows[i].key, LoopAnalysis: la}
			fmt.Fprintf(&b, "%s|%s|%s\n", rows[i].bench, rows[i].key, fmtLA(la))
		}
		b.WriteString("\n" + report.RenderTable3(t))
	}
	return b.String()
}

// regenerate runs table n through the report package's own entry point and
// renders it in the golden format.
func regenerate(ctx context.Context, n int) (string, error) {
	var b strings.Builder
	switch n {
	case 1:
		rows, err := report.Table1Ctx(ctx, tableOpts)
		if err != nil {
			return "", err
		}
		for _, r := range rows {
			fmt.Fprintf(&b, "%s|%s|%s\n", r.Benchmark, r.Loop, fmtLA(r.LoopAnalysis))
		}
		b.WriteString("\n" + report.RenderTable1(rows))
	case 2:
		rows, err := report.Table2Ctx(ctx, tableOpts)
		if err != nil {
			return "", err
		}
		for _, r := range rows {
			fmt.Fprintf(&b, "%s|%s\n", r.Benchmark, fmtLA(r.LoopAnalysis))
		}
		b.WriteString("\n" + report.RenderTable2(rows))
	case 3:
		rows, err := report.Table3Ctx(ctx, tableOpts)
		if err != nil {
			return "", err
		}
		for _, r := range rows {
			fmt.Fprintf(&b, "%s|%s|%s\n", r.Benchmark, r.Style, fmtLA(r.LoopAnalysis))
		}
		b.WriteString("\n" + report.RenderTable3(rows))
	}
	return b.String(), nil
}

// checkGolden compares a regenerated table with its golden text and names
// the first differing line.
func checkGolden(n int, got, want string) error {
	if got == want {
		return nil
	}
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(g) || i < len(w); i++ {
		var gl, wl string
		if i < len(g) {
			gl = g[i]
		}
		if i < len(w) {
			wl = w[i]
		}
		if gl != wl {
			return fmt.Errorf("table %d line %d: want %q, got %q", n, i+1, wl, gl)
		}
	}
	return fmt.Errorf("table %d differs from its golden file", n)
}

// tablesBench is the set-up tables workload.
type tablesBench struct {
	order  []int          // table numbers in the seed's order
	golden map[int]string // golden text by table
	events map[int]int64  // trace events one regeneration of the table emits
}

// goldenPath is where table n's golden file lives under the repository root.
func goldenPath(root string, n int) string {
	return filepath.Join(root, "internal", "report", "testdata", "golden", fmt.Sprintf("table%d.golden", n))
}

// setupTables reads the golden files and compiles and runs every table
// kernel once, untraced, to count the trace events a pass emits (a traced
// run emits one event per interpreted step). The seed orders the three
// tables within a pass; it changes no table's input.
func setupTables(ctx context.Context, e env) (bench, error) {
	b := &tablesBench{
		order:  rand.New(rand.NewSource(e.seed)).Perm(3),
		golden: map[int]string{},
		events: map[int]int64{},
	}
	for i := range b.order {
		b.order[i]++
	}
	steps := map[string]int64{}
	for n := 1; n <= 3; n++ {
		g, err := os.ReadFile(goldenPath(e.root, n))
		if err != nil {
			return nil, err
		}
		b.golden[n] = string(g)
		for _, r := range tableRows(n) {
			s, ok := steps[r.kernel.Source]
			if !ok {
				mod, err := pipeline.CompileCtx(ctx, r.kernel.Name+".c", r.kernel.Source)
				if err != nil {
					return nil, fmt.Errorf("%s: %w", r.kernel.Name, err)
				}
				res, err := pipeline.RunCtx(ctx, mod, false, core.Budget{})
				if err != nil {
					return nil, fmt.Errorf("%s: %w", r.kernel.Name, err)
				}
				s = res.Steps
				steps[r.kernel.Source] = s
			}
			b.events[n] += s
		}
	}
	return b, nil
}

func (b *tablesBench) close() {}

// pass regenerates Tables 1-3; each table is one operation.
func (b *tablesBench) pass(ctx context.Context) passResult {
	var p passResult
	for _, n := range b.order {
		p.attempted++
		t0 := time.Now()
		got, err := regenerate(ctx, n)
		lat := time.Since(t0)
		if err == nil {
			err = checkGolden(n, got, b.golden[n])
		}
		if err != nil {
			p.failed++
			p.mismatches = append(p.mismatches, err)
			continue
		}
		p.latencies = append(p.latencies, lat)
		p.events += b.events[n]
	}
	return p
}

// tracedPass regenerates Tables 1-3 row by row through the public calls the
// report package makes, timing each, and checks the result against the
// golden files like pass does.
func (b *tablesBench) tracedPass(ctx context.Context) (layerSample, passResult) {
	ls := layerSample{}
	var p passResult
	for _, n := range b.order {
		p.attempted++
		rows := tableRows(n)
		las := make([]report.LoopAnalysis, len(rows))
		var err error
		for i, r := range rows {
			var la *report.LoopAnalysis
			if la, err = tracedRow(ctx, r, ls); err != nil {
				err = fmt.Errorf("table %d row %d (%s): %w", n, i, r.bench, err)
				break
			}
			las[i] = *la
		}
		if err == nil {
			t := time.Now()
			got := goldenText(n, las)
			ls["report.render_ms"] += ms(time.Since(t))
			err = checkGolden(n, got, b.golden[n])
		}
		if err != nil {
			p.failed++
			p.mismatches = append(p.mismatches, err)
		}
	}
	ls.finish()
	return ls, p
}

// tracedRow is one table row, call by call: the front end, an untraced run
// (interp), the traced run (interp plus trace materialization), staticvec
// and profile, the representative-region sampler, and then the region split
// and the sampled regions' analyses (core) it made, repeated so that the
// sampler's self time excludes them.
func tracedRow(ctx context.Context, r tableRow, ls layerSample) (*report.LoopAnalysis, error) {
	name := r.kernel.Name + ".c"
	t := time.Now()
	prog, err := parser.Parse(name, r.kernel.Source)
	ls["parser.ms"] += ms(time.Since(t))
	if err != nil {
		return nil, err
	}
	t = time.Now()
	info, err := sema.Check(prog)
	ls["sema.ms"] += ms(time.Since(t))
	if err != nil {
		return nil, err
	}
	t = time.Now()
	mod, err := lower.Lower(prog, info)
	ls["lower.ms"] += ms(time.Since(t))
	if err != nil {
		return nil, err
	}

	t = time.Now()
	plain, err := pipeline.RunCtx(ctx, mod, true, core.Budget{})
	interpMs := ms(time.Since(t))
	if err != nil {
		return nil, err
	}
	ls["interp.ms"] += interpMs
	ls["interp.steps"] += float64(plain.Steps)
	a0 := allocNow()
	t = time.Now()
	res, tr, err := pipeline.TraceCtxOpts(ctx, mod, core.Budget{}, tableOpts)
	traceMs := ms(time.Since(t))
	ls[sumAllocBytes] += float64(allocNow() - a0)
	if err != nil {
		return nil, err
	}
	ls["trace.emit_ms"] += traceMs - interpMs
	ls["trace.events"] += float64(len(tr.Events))

	t = time.Now()
	verdicts := staticvec.AnalyzeModule(mod)
	ls["staticvec.ms"] += ms(time.Since(t))
	t = time.Now()
	prof := profile.Build(mod, res, verdicts)
	ls["profile.ms"] += ms(time.Since(t))

	line, err := r.kernel.FindLine(r.marker)
	if err != nil {
		return nil, err
	}
	lm := mod.LoopByLine(line)
	if lm == nil {
		return nil, fmt.Errorf("no loop on line %d", line)
	}
	// The sampler runs first, as in an untraced row; the region split and
	// the picks' analyses it makes are then repeated and timed on their own,
	// and its self time is what remains.
	t = time.Now()
	rep, err := report.RepresentativeReportCtx(ctx, tr, lm.ID, 3, tableOpts)
	sampleMs := ms(time.Since(t))
	if err != nil {
		return nil, err
	}
	t = time.Now()
	regions := tr.Regions(lm.ID)
	regionsMs := ms(time.Since(t))
	ls["trace.regions_ms"] += regionsMs
	// The sampler's picks: first, middle and last region.
	picks := []int{0}
	if len(regions) > 2 {
		picks = append(picks, len(regions)/2)
	}
	if len(regions) > 1 {
		picks = append(picks, len(regions)-1)
	}
	var coreMs float64
	for _, pk := range picks {
		sub := tr.Slice(regions[pk])
		t = time.Now()
		prep, err := pipeline.AnalyzeRegion(ctx, sub, ddg.Options{}, tableOpts)
		coreMs += ms(time.Since(t))
		if err != nil {
			return nil, err
		}
		ls[sumCoreEvents] += float64(len(sub.Events))
		addReport(ls, prep)
	}
	ls["core.ms"] += coreMs
	ls["report.sample_ms"] += sampleMs - regionsMs - coreMs

	la := &report.LoopAnalysis{
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

// addReport counts a region report's candidate instructions and parallel
// partitions.
func addReport(ls layerSample, rep *core.Report) {
	ls["core.candidates"] += float64(len(rep.PerInstr))
	for _, ir := range rep.PerInstr {
		ls["core.partitions"] += float64(ir.Partitions)
	}
}

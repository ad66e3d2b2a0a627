package pipeline

// VTR2 container wiring: recording straight into the indexed format and
// the indexed-parallel region analysis. The analysis contract matches the
// sequential paths exactly — same per-region computation (AnalyzeRegion,
// Workers=1 inside a region), same "pipeline: region %d: ..." error texts,
// same lifecycle counters, results in index-addressed slots — so the
// differential battery can assert byte-identical output between a VTR1
// sequential scan and a VTR2 parallel scan at any worker count. What the
// index changes is the access pattern: regions are decoded from their
// covering blocks only, fanned across scan workers, instead of streaming
// the whole trace through one decoder.

import (
	"context"
	"fmt"
	"io"

	"github.com/example/vectrace/internal/core"
	"github.com/example/vectrace/internal/ddg"
	"github.com/example/vectrace/internal/interp"
	"github.com/example/vectrace/internal/ir"
	"github.com/example/vectrace/internal/obs"
	"github.com/example/vectrace/internal/trace"
)

// RecordContainer executes the module's main function under full
// instrumentation, streaming the trace to w as an indexed VTR2 container.
// Like Record, peak memory is independent of the trace length (one block
// plus the growing index).
func RecordContainer(mod *ir.Module, w io.Writer, opts trace.ContainerOptions) (*interp.Result, error) {
	return RecordContainerCtx(context.Background(), mod, w, core.Budget{}, opts)
}

// RecordContainerCtx is RecordContainer with cooperative cancellation and
// the budget's interpreter limits applied.
func RecordContainerCtx(ctx context.Context, mod *ir.Module, w io.Writer, budget core.Budget, opts trace.ContainerOptions) (*interp.Result, error) {
	cw, err := trace.NewContainerWriter(w, mod, opts)
	if err != nil {
		return nil, fmt.Errorf("pipeline: recording trace: %w", err)
	}
	return record(ctx, mod, budget, cw.Write, cw.Close)
}

// analyzeLoopRegionsIndexed analyzes the dynamic regions of the loop on
// the given source line by seeking through a VTR2 container's footer index.
// Every region (want < 0) fans out across scanWorkers workers, each
// decoding only its region's covering blocks and running AnalyzeRegion in
// place (scan and analyze fused per worker, so decoded events feed the
// kernel without a handoff); a selected region want decodes only its own
// covering blocks.
//
// Degradation is per-region and strictly better than sequential: damage in
// one region's blocks fails that region alone, while the sequential scan
// must stop at the first damaged byte. On a pristine trace the output —
// reports, error texts, lifecycle counters — is byte-identical to the
// sequential scan at any worker count.
func analyzeLoopRegionsIndexed(ctx context.Context, c *trace.Container, mod *ir.Module, line, want int, dopts ddg.Options, copts core.Options, scanWorkers int) ([]RegionReport, error) {
	lm, err := findLoop(mod, line)
	if err != nil {
		return nil, err
	}
	ctx, span := obs.StartSpan(ctx, "region-analyze")
	defer span.End()
	rec := obs.FromContext(ctx)
	regions := c.RegionsOf(lm.ID)
	if want >= len(regions) {
		return nil, regionRangeError(line, len(regions), want)
	}
	if len(regions) == 0 {
		return nil, fmt.Errorf("pipeline: loop on line %d never executed", line)
	}
	inner := copts
	inner.Workers = 1
	analyze := func(k int, r trace.IndexRegion, sub *trace.Trace, derr error) RegionReport {
		life := startRegion(rec)
		rr := RegionReport{Index: k, Events: r.Events()}
		err := derr
		if off, ok := trace.CorruptOffset(derr); ok {
			rec.SetCorruptByte(off)
		}
		if derr == nil {
			rec.GaugeInc(obs.ResidentRegions, obs.PeakResidentRegions)
			err = core.Guard(k, "region", int64(k), func() error {
				rep, aerr := AnalyzeRegion(ctx, sub, dopts, inner)
				rr.Report = rep
				return aerr
			})
			rec.GaugeDec(obs.ResidentRegions)
		}
		life.finish(&rr, err)
		return rr
	}
	if want >= 0 {
		r := regions[want]
		sub, derr := c.Cursor().RegionTrace(mod, r)
		return collectRegions(ctx, []RegionReport{analyze(want, r, sub, derr)}, nil)
	}
	out := make([]RegionReport, len(regions))
	_ = c.ScanIndexedRegions(ctx, mod, lm.ID, scanWorkers, func(k int, r trace.IndexRegion, sub *trace.Trace, derr error) {
		out[k] = analyze(k, r, sub, derr)
	})
	return collectRegions(ctx, out, nil)
}

// AnalyzeLoopRegionsOpened analyzes every dynamic region of the loop on the
// given source line in an opened trace; see AnalyzeOpened.
func AnalyzeLoopRegionsOpened(ctx context.Context, o *trace.Opened, mod *ir.Module, line int, dopts ddg.Options, copts core.Options, scanWorkers int) ([]RegionReport, error) {
	return AnalyzeOpened(ctx, o, mod, line, -1, dopts, copts, scanWorkers)
}

// AnalyzeOpened analyzes the dynamic regions of the loop on the given
// source line in an opened trace: every region (instance < 0) or just
// region `instance`, the one entry point behind `vectrace analyze -trace`
// and the service's trace uploads. It goes through the footer index —
// regions seeked and fanned across scanWorkers workers (0 means
// copts.WorkerCount()), a selected region decoding only its covering
// blocks — when the index is available and scanWorkers >= 0, and through
// the sequential scan otherwise (scanWorkers == -1 forces sequential even
// on an indexed file, the differential tests' reference), which stops
// reading once the selected region closes.
func AnalyzeOpened(ctx context.Context, o *trace.Opened, mod *ir.Module, line, instance int, dopts ddg.Options, copts core.Options, scanWorkers int) ([]RegionReport, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if o.Container == nil || scanWorkers < 0 {
		return analyzeStream(ctx, mod, o.Source(), line, instance, dopts, copts)
	}
	if scanWorkers == 0 {
		scanWorkers = copts.WorkerCount()
	}
	return analyzeLoopRegionsIndexed(ctx, o.Container, mod, line, instance, dopts, copts, scanWorkers)
}

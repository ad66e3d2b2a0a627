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

// containerSink streams interpreter events into a trace.ContainerWriter,
// the VTR2 counterpart of encoderSink.
type containerSink struct {
	cw  *trace.ContainerWriter
	err error
}

// Exec implements interp.Tracer.
func (s *containerSink) Exec(id int32, addr int64) {
	if s.err == nil {
		s.err = s.cw.Write(trace.Event{ID: id, Addr: addr})
	}
}

// ExecBatch implements interp.BatchTracer: one fan-out call per recycled
// event chunk instead of one per event.
func (s *containerSink) ExecBatch(events []interp.Event) {
	for _, ev := range events {
		if s.err != nil {
			return
		}
		s.err = s.cw.Write(trace.Event{ID: ev.ID, Addr: ev.Addr})
	}
}

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
	ctx, sp := obs.StartSpan(ctx, "record")
	defer sp.End()
	cw, err := trace.NewContainerWriter(w, mod, opts)
	if err != nil {
		return nil, fmt.Errorf("pipeline: recording trace: %w", err)
	}
	sink := &containerSink{cw: cw}
	m := interp.New(mod, interpConfig(budget, sink, true))
	res, err := m.RunContext(ctx, "main")
	if err != nil {
		return nil, err
	}
	if sink.err != nil {
		return nil, fmt.Errorf("pipeline: recording trace: %w", sink.err)
	}
	if err := cw.Close(); err != nil {
		return nil, fmt.Errorf("pipeline: recording trace: %w", err)
	}
	return res, nil
}

// analyzeLoopRegionsIndexed analyzes every dynamic region of the loop on
// the given source line by seeking through a VTR2 container's footer index:
// regions fan out across scanWorkers workers, each decoding only its
// region's covering blocks and running AnalyzeRegion in place (scan and
// analyze fused per worker, so decoded events feed the kernel without a
// handoff).
//
// Degradation is per-region and strictly better than sequential: damage in
// one region's blocks fails that region alone, while the sequential scanner
// must stop at the first damaged byte. On a pristine trace the output —
// reports, error texts, lifecycle counters — is byte-identical to
// AnalyzeLoopRegionsStreamCtx at any worker count.
func analyzeLoopRegionsIndexed(ctx context.Context, c *trace.Container, mod *ir.Module, line int, dopts ddg.Options, copts core.Options, scanWorkers int) ([]RegionReport, error) {
	lm, err := findLoop(mod, line)
	if err != nil {
		return nil, err
	}
	ctx, span := obs.StartSpan(ctx, "region-analyze")
	defer span.End()
	rec := obs.FromContext(ctx)
	regions := c.RegionsOf(lm.ID)
	if len(regions) == 0 {
		return nil, fmt.Errorf("pipeline: loop on line %d never executed", line)
	}
	inner := copts
	inner.Workers = 1
	out := make([]RegionReport, len(regions))
	_ = c.ScanIndexedRegions(ctx, mod, lm.ID, scanWorkers, func(k int, r trace.IndexRegion, sub *trace.Trace, derr error) {
		life := startRegion(rec)
		out[k] = RegionReport{Index: k, Events: r.Events()}
		err := derr
		if off, ok := trace.CorruptOffset(derr); ok {
			rec.SetCorruptByte(off)
		}
		if derr == nil {
			rec.GaugeInc(obs.ResidentRegions, obs.PeakResidentRegions)
			err = core.Guard(k, "region", int64(k), func() error {
				rep, aerr := AnalyzeRegion(ctx, sub, dopts, inner)
				out[k].Report = rep
				return aerr
			})
			rec.GaugeDec(obs.ResidentRegions)
		}
		life.finish(&out[k], err)
	})
	return collectRegions(ctx, out, nil)
}

// AnalyzeLoopRegionsOpened analyzes every dynamic region of the loop on the
// given source line in an opened trace: through the footer index — regions
// seeked and fanned across scanWorkers workers (0 means
// copts.WorkerCount()) — when the index is available and scanWorkers >= 0,
// through the sequential AnalyzeLoopRegionsStreamCtx scan otherwise
// (scanWorkers == -1 forces sequential even on an indexed file, the
// differential tests' reference).
func AnalyzeLoopRegionsOpened(ctx context.Context, o *trace.Opened, mod *ir.Module, line int, dopts ddg.Options, copts core.Options, scanWorkers int) ([]RegionReport, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if o.Container == nil || scanWorkers < 0 {
		return AnalyzeLoopRegionsStreamCtx(ctx, mod, o.Source(), line, dopts, copts)
	}
	if scanWorkers == 0 {
		scanWorkers = copts.WorkerCount()
	}
	return analyzeLoopRegionsIndexed(ctx, o.Container, mod, line, dopts, copts, scanWorkers)
}

// LoopRegionOpened materializes the idx-th dynamic region of the loop on
// the given source line from an opened trace: an index seek decoding only
// the covering blocks when the footer index is available, the bounded
// sequential scan otherwise. Error texts match LoopRegionStream.
func LoopRegionOpened(o *trace.Opened, mod *ir.Module, line, idx int) (*trace.Trace, error) {
	if o.Container == nil {
		return LoopRegionStream(mod, o.Source(), line, idx)
	}
	lm, err := findLoop(mod, line)
	if err != nil {
		return nil, err
	}
	regions := o.Container.RegionsOf(lm.ID)
	if idx < 0 || idx >= len(regions) {
		return nil, fmt.Errorf("pipeline: loop on line %d has %d dynamic regions, want index %d", line, len(regions), idx)
	}
	return o.Container.Cursor().RegionTrace(mod, regions[idx])
}

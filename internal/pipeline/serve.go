package pipeline

// Job-scoped entry points: one call that takes a raw submission (MiniC
// source text, optionally with a recorded trace) and produces region
// reports under the job's budget and context. The vectraced service and
// `vectrace analyze` both reach regions through them (or, for trace files
// on disk, through the same functions AnalyzeTraceBytesCtx composes), so
// their reports are byte-identical by construction.

import (
	"bytes"
	"context"
	"fmt"

	"github.com/example/vectrace/internal/core"
	"github.com/example/vectrace/internal/ddg"
	"github.com/example/vectrace/internal/obs"
	"github.com/example/vectrace/internal/trace"
)

// AnalyzeSourceCtx compiles src, executes it under the budget's
// interpreter limits, and analyzes every dynamic region of the loop on the
// given source line (instance < 0) live, without holding the trace, or
// just the requested region. It backs `vectrace analyze file.c -line N`
// and the service's source-only jobs alike.
func AnalyzeSourceCtx(ctx context.Context, filename, src string, line, instance int, dopts ddg.Options, copts core.Options, budget core.Budget) ([]RegionReport, error) {
	mod, err := CompileCtx(ctx, filename, src)
	if err != nil {
		return nil, err
	}
	if instance < 0 {
		_, regs, err := AnalyzeLoopRegionsLiveCtx(ctx, mod, line, dopts, copts, budget)
		return regs, err
	}
	_, tr, err := TraceCtxOpts(ctx, mod, budget, copts)
	if err != nil {
		return nil, err
	}
	sub, err := LoopRegion(tr, line, instance)
	if err != nil {
		return nil, err
	}
	return analyzeInstance(ctx, sub, instance, dopts, copts)
}

// AnalyzeTraceBytesCtx analyzes a previously recorded trace delivered as a
// byte payload (an upload) against the module compiled from src: the
// job-scoped equivalent of `vectrace analyze file.c -trace t.vtr -line N`.
// The payload is format-sniffed exactly like a trace file — VTR2 footers
// enable indexed region seeks and parallel scanning, damaged or VTR1
// payloads take the sequential salvage path — and corrupt uploads degrade
// per-region with the byte offset in the error, never a panic.
func AnalyzeTraceBytesCtx(ctx context.Context, filename, src string, payload []byte, line, instance int, dopts ddg.Options, copts core.Options, scanWorkers int) ([]RegionReport, error) {
	mod, err := CompileCtx(ctx, filename, src)
	if err != nil {
		return nil, err
	}
	rec := obs.FromContext(ctx)
	rec.Set(obs.TraceBytesTotal, int64(len(payload)))
	o, err := trace.OpenTrace(bytes.NewReader(payload), int64(len(payload)), rec)
	if err != nil {
		return nil, err
	}
	if instance < 0 {
		return AnalyzeLoopRegionsOpened(ctx, o, mod, line, dopts, copts, scanWorkers)
	}
	sub, err := LoopRegionOpened(o, mod, line, instance)
	if err != nil {
		return nil, err
	}
	return analyzeInstance(ctx, sub, instance, dopts, copts)
}

// analyzeInstance is the single-instance tail of both job entry points:
// the region's report, with a failure under the "pipeline: region N"
// prefix the fan-outs use.
func analyzeInstance(ctx context.Context, sub *trace.Trace, instance int, dopts ddg.Options, copts core.Options) ([]RegionReport, error) {
	rep, err := AnalyzeRegion(ctx, sub, dopts, copts)
	rr := RegionReport{Index: instance, Events: sub.Len(), Report: rep}
	if err != nil {
		rr.Err = fmt.Errorf("pipeline: region %d: %w", instance, err)
	}
	return []RegionReport{rr}, rr.Err
}

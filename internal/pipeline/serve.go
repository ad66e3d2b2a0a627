package pipeline

// Job-scoped entry points: one call that takes a raw submission (MiniC
// source text, optionally with a recorded trace) and produces region
// reports under the job's budget and context. The vectraced service and
// `vectrace analyze` both reach regions through them (or, for trace files
// on disk, through AnalyzeOpened, which AnalyzeTraceBytesCtx wraps), so
// their reports are byte-identical by construction.

import (
	"bytes"
	"context"

	"github.com/example/vectrace/internal/core"
	"github.com/example/vectrace/internal/ddg"
	"github.com/example/vectrace/internal/obs"
	"github.com/example/vectrace/internal/trace"
)

// AnalyzeSourceCtx compiles src, executes it under the budget's
// interpreter limits, and analyzes live, without holding the trace, every
// dynamic region of the loop on the given source line (instance < 0) or
// just region `instance`. It backs `vectrace analyze file.c -line N` and
// the service's source-only jobs alike.
func AnalyzeSourceCtx(ctx context.Context, filename, src string, line, instance int, dopts ddg.Options, copts core.Options, budget core.Budget) ([]RegionReport, error) {
	mod, err := CompileCtx(ctx, filename, src)
	if err != nil {
		return nil, err
	}
	_, regs, err := analyzeLive(ctx, mod, line, instance, dopts, copts, budget)
	return regs, err
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
	return AnalyzeOpened(ctx, o, mod, line, instance, dopts, copts, scanWorkers)
}

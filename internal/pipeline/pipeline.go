// Package pipeline wires the front end, interpreter, tracer, and analyses
// into the convenience entry points used by the command-line tools, the
// examples, and the benchmark harness: compile a MiniC source, execute it
// under instrumentation, and capture per-loop sub-traces.
package pipeline

import (
	"context"
	"fmt"
	"sync"
	"time"

	"github.com/example/vectrace/internal/core"
	"github.com/example/vectrace/internal/ddg"
	"github.com/example/vectrace/internal/interp"
	"github.com/example/vectrace/internal/ir"
	"github.com/example/vectrace/internal/lower"
	"github.com/example/vectrace/internal/obs"
	"github.com/example/vectrace/internal/parser"
	"github.com/example/vectrace/internal/sema"
	"github.com/example/vectrace/internal/trace"
)

// interpConfig maps a core.Budget onto the interpreter's execution limits,
// leaving the interpreter defaults in place for unset fields.
func interpConfig(b core.Budget, tracer interp.Tracer, countLoops bool) interp.Config {
	return interp.Config{
		Tracer:          tracer,
		CountLoopCycles: countLoops,
		MaxSteps:        b.MaxSteps,
		MaxDepth:        b.MaxDepth,
		StackSize:       b.MaxStackBytes,
	}
}

// Compile parses, type-checks, and lowers a MiniC source file into a
// finalized VIR module.
func Compile(filename, src string) (*ir.Module, error) {
	return CompileCtx(context.Background(), filename, src)
}

// CompileCtx is Compile with the front-end stages recorded as observability
// spans (parse, check, lower) when ctx carries an obs.Recorder — the stages
// show up as logical regions under -exectrace and as timed spans in -stats.
// With no recorder on ctx it is byte-for-byte Compile.
func CompileCtx(ctx context.Context, filename, src string) (*ir.Module, error) {
	_, sp := obs.StartSpan(ctx, "parse")
	prog, err := parser.Parse(filename, src)
	sp.End()
	if err != nil {
		return nil, fmt.Errorf("parse: %w", err)
	}
	_, sp = obs.StartSpan(ctx, "check")
	info, err := sema.Check(prog)
	sp.End()
	if err != nil {
		return nil, fmt.Errorf("check: %w", err)
	}
	_, sp = obs.StartSpan(ctx, "lower")
	mod, err := lower.Lower(prog, info)
	sp.End()
	if err != nil {
		return nil, fmt.Errorf("lower: %w", err)
	}
	return mod, nil
}

// Run executes the module's main function without tracing and returns the
// execution summary (used for plain runs and cycle profiling).
func Run(mod *ir.Module, countLoops bool) (*interp.Result, error) {
	return RunCtx(context.Background(), mod, countLoops, core.Budget{})
}

// RunCtx is Run with cooperative cancellation and the budget's interpreter
// limits applied; cancellation and exhaustion surface as errors wrapping
// core.ErrCanceled and core.ErrResourceLimit respectively.
func RunCtx(ctx context.Context, mod *ir.Module, countLoops bool, budget core.Budget) (*interp.Result, error) {
	ctx, sp := obs.StartSpan(ctx, "interp")
	defer sp.End()
	m := interp.New(mod, interpConfig(budget, nil, countLoops))
	return m.RunContext(ctx, "main")
}

// Trace executes the module's main function under full instrumentation and
// returns both the execution summary and the captured trace.
func Trace(mod *ir.Module) (*interp.Result, *trace.Trace, error) {
	return TraceCtxOpts(context.Background(), mod, core.Budget{}, core.Options{})
}

// sinkPool recycles TraceSinks (and so their event backing arrays) across
// traces: Reset retains capacity, so steady-state tracing of same-sized
// programs allocates no event storage at all.
var sinkPool = sync.Pool{New: func() any { return new(interp.TraceSink) }}

// TraceCtxOpts is Trace with cooperative cancellation and the budget's
// interpreter limits applied. No analysis option changes what the
// interpreter records, so the core.Options parameter is ignored; it keeps
// the call shape of the analysis entry points.
func TraceCtxOpts(ctx context.Context, mod *ir.Module, budget core.Budget, _ core.Options) (*interp.Result, *trace.Trace, error) {
	ctx, sp := obs.StartSpan(ctx, "interp")
	defer sp.End()
	sink := sinkPool.Get().(*interp.TraceSink)
	sink.Reset()
	defer sinkPool.Put(sink)
	m := interp.New(mod, interpConfig(budget, sink, true))
	res, err := m.RunContext(ctx, "main")
	if err != nil {
		return nil, nil, err
	}
	tr := &trace.Trace{Module: mod}
	tr.Events = make([]trace.Event, len(sink.Events))
	for i, ev := range sink.Events {
		tr.Events[i] = trace.Event{ID: ev.ID, Addr: ev.Addr}
	}
	return res, tr, nil
}

// CompileAndTrace is Compile followed by Trace.
func CompileAndTrace(filename, src string) (*ir.Module, *interp.Result, *trace.Trace, error) {
	mod, err := Compile(filename, src)
	if err != nil {
		return nil, nil, nil, err
	}
	res, tr, err := Trace(mod)
	if err != nil {
		return mod, nil, nil, err
	}
	return mod, res, tr, nil
}

// RegionReport pairs one dynamic region (sub-trace) of a loop with its
// analysis result.
type RegionReport struct {
	// Index is the region's position among the loop's dynamic executions.
	Index int
	// Events is the region's dynamic instruction count.
	Events int
	// Report is the §3 analysis of the region's DDG. On a per-region
	// failure it may be nil (the region's feed failed) or a degraded report
	// missing the failed candidates' rows; Err says which.
	Report *core.Report
	// Err is this region's failure, if any: one bad region records its
	// error here while the remaining regions are still analyzed. The
	// analysis entry points additionally join every per-region error into
	// their returned error, so a non-nil summary error is never silent.
	Err error
	// Elapsed is the wall time this region's analysis took (set even when
	// the region failed part-way). It is observability metadata, populated
	// only when the run carries an obs.Recorder — with
	// observability off it stays zero, so region reports from observed and
	// unobserved runs differ only in this field and no renderer prints it.
	Elapsed time.Duration
}

// AnalyzeRegion analyzes one region sub-trace: its events run through a
// pooled one-pass stream kernel (the fused ingest→analyze pass, no graph).
// Under RelaxReductions, a region in which some column qualifies as a
// reduction is fed twice: the first feed finds the accumulator operands
// and the replay timestamps those columns without them (see
// core.StreamKernel.Relax). It is the single-region building block behind
// every analysis of held events — the region dispatcher's relaxed regions,
// whole-program analysis, and the report package's region sampling.
// Cancellation is polled at the scanner's granularity, but only from the
// second poll window on — regions shorter than the poll interval behave
// exactly like AnalyzeCtx on the graph, which for a candidate-free region
// succeeds even on a canceled context.
func AnalyzeRegion(ctx context.Context, sub *trace.Trace, dopts ddg.Options, copts core.Options) (*core.Report, error) {
	rec := obs.FromContext(ctx)
	k := core.AcquireStreamKernel(sub.Module, dopts, copts, rec)
	defer k.Release()
	sw := rec.StartTimer("tile-sweep")
	err := feedEvents(ctx, k, sub.Events)
	if err == nil && copts.RelaxReductions && k.Relax() {
		err = feedEvents(ctx, k, sub.Events)
	}
	sw.Stop()
	if err != nil {
		return nil, err
	}
	return k.Finish(ctx)
}

// feedEvents feeds events to k in order, polling ctx every 4096 events.
func feedEvents(ctx context.Context, k *core.StreamKernel, events []trace.Event) error {
	for i, ev := range events {
		if i%4096 == 4095 {
			if err := core.Canceled(ctx); err != nil {
				return err
			}
		}
		if err := k.Feed(ev.ID, ev.Addr); err != nil {
			return err
		}
	}
	return nil
}

// findLoop resolves the loop whose "for"/"while" keyword is on the given
// source line.
func findLoop(mod *ir.Module, line int) (*ir.LoopMeta, error) {
	lm := mod.LoopByLine(line)
	if lm == nil {
		return nil, fmt.Errorf("pipeline: no loop on line %d", line)
	}
	return lm, nil
}

// LoopRegion returns the idx-th dynamic sub-trace of the source loop whose
// "for"/"while" keyword is on the given source line. It returns an error if
// the loop or region does not exist — e.g. when the loop never executed.
func LoopRegion(tr *trace.Trace, line, idx int) (*trace.Trace, error) {
	lm, err := findLoop(tr.Module, line)
	if err != nil {
		return nil, err
	}
	regions := tr.Regions(lm.ID)
	if idx < 0 || idx >= len(regions) {
		return nil, fmt.Errorf("pipeline: loop on line %d has %d dynamic regions, want index %d", line, len(regions), idx)
	}
	return tr.Slice(regions[idx]), nil
}

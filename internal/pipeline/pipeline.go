// Package pipeline wires the front end, interpreter, tracer, and analyses
// into the entry points used by the command-line tools, the service, the
// examples, and the benchmark harness: compile a MiniC source, execute it
// under instrumentation, and analyze loop regions — or the whole run — as
// the events stream past, without holding the trace.
package pipeline

import (
	"context"
	"fmt"
	"sync"
	"time"

	"github.com/example/vectrace/internal/baseline"
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

// sinkPool recycles TraceSinks (and so their event backing arrays) across
// traces: Reset retains capacity, so steady-state tracing of same-sized
// programs allocates no event storage at all.
var sinkPool = sync.Pool{New: func() any { return new(interp.TraceSink) }}

// TraceCtxOpts executes the module's main function under full
// instrumentation, with cooperative cancellation and the budget's
// interpreter limits applied, and returns both the execution summary and
// the whole recorded trace — the materializing form the Tables sampler
// still samples regions from. No analysis option changes what the
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

// AnalyzeRegion analyzes one region sub-trace held in memory: its events
// run through a pooled one-pass stream kernel (no graph).
// Under RelaxReductions, a region in which some column qualifies as a
// reduction is fed twice: the first feed finds the accumulator operands
// and the replay timestamps those columns without them (see
// core.StreamKernel.Relax). It is the single-region building block behind
// every analysis of held events — the region dispatcher's relaxed regions
// and the report package's region sampling.
// Cancellation is polled at the scanner's granularity, but only from the
// second poll window on, so a region shorter than the poll interval is
// fed whole; Finish then checks ctx, except for a candidate-free region,
// which succeeds even on a canceled context.
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

// findLoop resolves the ID of the loop whose "for"/"while" keyword is on
// the given source line; line 0 selects the whole run (trace.WholeRun).
func findLoop(mod *ir.Module, line int) (int, error) {
	if line == 0 {
		return trace.WholeRun, nil
	}
	lm := mod.LoopByLine(line)
	if lm == nil {
		return 0, fmt.Errorf("pipeline: no loop on line %d", line)
	}
	return lm.ID, nil
}

// AnalyzeKumarCtx is the single-region analysis behind `vectrace analyze
// -baselines`: region instance of the loop on the given source line (line
// 0: the whole run), from a live run of mod (src nil) or from the trace
// src, analyzed by the stream kernel while the same events replay through
// Kumar's critical-path baseline. Neither the trace nor a graph is held.
func AnalyzeKumarCtx(ctx context.Context, mod *ir.Module, src trace.EventSource, line, instance int, dopts ddg.Options, copts core.Options) (*core.Report, *baseline.Stream, error) {
	var kumar *baseline.Stream
	tap := func() trace.RegionSink {
		s := baseline.NewKumar(mod)
		s.OnClose = func(index int) {
			if index == instance {
				kumar = s
			}
		}
		return s
	}
	var regs []RegionReport
	var err error
	if src == nil {
		_, regs, err = analyzeLive(ctx, mod, line, instance, dopts, copts, core.Budget{}, tap)
	} else {
		regs, err = analyzeStream(ctx, mod, src, line, instance, dopts, copts, tap)
	}
	if err == nil {
		err = kumar.Err()
	}
	if err != nil {
		return nil, nil, err
	}
	return regs[0].Report, kumar, nil
}

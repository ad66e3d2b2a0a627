package pipeline

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"github.com/example/vectrace/internal/core"
	"github.com/example/vectrace/internal/ddg"
	"github.com/example/vectrace/internal/interp"
	"github.com/example/vectrace/internal/ir"
	"github.com/example/vectrace/internal/obs"
	"github.com/example/vectrace/internal/trace"
)

// interp.NoAddr and trace.NoAddr must agree for events to flow through the
// tracer sink unchanged; this line fails to compile if they ever diverge.
var _ = [1]struct{}{}[interp.NoAddr-trace.NoAddr]

// encoderSink streams events straight into a trace.Encoder as the
// interpreter executes, so recording never materializes the trace.
type encoderSink struct {
	enc *trace.Encoder
	err error
}

// Exec implements interp.Tracer.
func (s *encoderSink) Exec(id int32, addr int64) {
	if s.err == nil {
		s.err = s.enc.Write(trace.Event{ID: id, Addr: addr})
	}
}

// ExecBatch implements interp.BatchTracer: the plan dispatcher hands events
// over in recycled ~1K chunks, costing one dynamic dispatch per chunk
// instead of one per event.
func (s *encoderSink) ExecBatch(events []interp.Event) {
	for _, ev := range events {
		if s.err != nil {
			return
		}
		s.err = s.enc.Write(trace.Event{ID: ev.ID, Addr: ev.Addr})
	}
}

// Record executes the module's main function under full instrumentation,
// streaming the VTR1-encoded trace to w as it is produced. Peak memory is
// the interpreter's working set plus the encoder's buffer, independent of
// the trace length — the streaming half of the paper's record-then-analyze
// workflow.
func Record(mod *ir.Module, w io.Writer) (*interp.Result, error) {
	return RecordCtx(context.Background(), mod, w, core.Budget{})
}

// RecordCtx is Record with cooperative cancellation and the budget's
// interpreter limits applied. A write failure on w aborts the run rather
// than silently dropping tail events.
func RecordCtx(ctx context.Context, mod *ir.Module, w io.Writer, budget core.Budget) (*interp.Result, error) {
	ctx, sp := obs.StartSpan(ctx, "record")
	defer sp.End()
	enc := trace.NewEncoder(w)
	sink := &encoderSink{enc: enc}
	m := interp.New(mod, interpConfig(budget, sink, true))
	res, err := m.RunContext(ctx, "main")
	if err != nil {
		return nil, err
	}
	if sink.err != nil {
		return nil, fmt.Errorf("pipeline: recording trace: %w", sink.err)
	}
	if err := enc.Close(); err != nil {
		return nil, fmt.Errorf("pipeline: recording trace: %w", err)
	}
	return res, nil
}

// AnalyzeLoopRegionsStreamCtx scans src for the dynamic regions of the
// loop whose "for"/"while" keyword is on the given source line and analyzes
// them as they arrive. Region events flow straight from the scan into the
// per-region workers in bounded chunks, so peak memory scales with the
// kernels' live working set (O(live addresses × candidates)), not with
// region or trace length; only RelaxReductions holds each in-flight
// region's events, bounding memory by workers × the longest region. Each
// region's analysis runs with Workers=1 but otherwise inherits copts, and
// results land in region-index order, so the output is identical for any
// worker count and tile width.
//
// Failures degrade per region. One poisoned region — a budget exhausted
// mid-feed, a graph that fails to build, even a worker panic — records its
// error in its own RegionReport.Err slot while every other region is still
// scanned and analyzed. The returned summary error joins the per-region
// errors in region-index order, followed by the scan error (if the stream
// itself went bad) and the cancellation error; callers inspect causes with
// errors.Is/errors.As as usual. A scan failure is not fatal either: regions
// that closed before the stream went bad are analyzed and returned
// alongside the corruption diagnostic, so a truncated multi-gigabyte trace
// still yields every intact region.
func AnalyzeLoopRegionsStreamCtx(ctx context.Context, mod *ir.Module, src trace.EventSource, line int, dopts ddg.Options, copts core.Options) ([]RegionReport, error) {
	return analyzeRegionsOnePassStream(ctx, mod, line, dopts, copts,
		func(ctx context.Context, loopID int, factory trace.SinkFactory) (int, error) {
			return trace.FeedRegions(ctx, mod, loopID, src, factory)
		})
}

// streamChunkEvents is the event granularity at which the feed goroutine
// hands region events to a kernel worker; streamChunkQueue bounds the
// chunks buffered per in-flight region. Together they are the dispatcher's
// only event retention outside RelaxReductions — a few thousand events per
// resident region, independent of region length — and the backpressure
// that stops the scan from outrunning the workers.
const (
	streamChunkEvents = 1024
	streamChunkQueue  = 4
)

// onePassDispatch is the shared state of one streaming one-pass run: the
// chunk freelist and the retained-event accounting behind the
// ScanPeakRetainedEvents gauge.
type onePassDispatch struct {
	rec         *obs.Recorder
	outstanding atomic.Int64
	chunkMu     sync.Mutex
	chunkFree   [][]trace.Event
	open        int // open sinks; touched only by the feed goroutine
}

func (d *onePassDispatch) getChunk() []trace.Event {
	d.chunkMu.Lock()
	defer d.chunkMu.Unlock()
	if n := len(d.chunkFree); n > 0 {
		c := d.chunkFree[n-1]
		d.chunkFree[n-1] = nil
		d.chunkFree = d.chunkFree[:n-1]
		return c[:0]
	}
	return make([]trace.Event, 0, streamChunkEvents)
}

func (d *onePassDispatch) putChunk(c []trace.Event) {
	d.chunkMu.Lock()
	d.chunkFree = append(d.chunkFree, c)
	d.chunkMu.Unlock()
}

// onePassSink routes one region's events from the feed goroutine to its
// kernel worker in chunks. Event/Close/Abort run on the feed goroutine; the
// worker reads idx/aborted only after the channel closes, so the close is
// the synchronization point. An inert sink (cancellation hit while waiting
// for a worker slot) discards everything.
type onePassSink struct {
	d       *onePassDispatch
	ch      chan []trace.Event
	cur     []trace.Event
	idx     int
	aborted bool
	inert   bool
	hasSem  bool
}

func (s *onePassSink) Event(ev trace.Event) {
	if s.inert {
		return
	}
	if s.cur == nil {
		s.cur = s.d.getChunk()
	}
	s.cur = append(s.cur, ev)
	if len(s.cur) == cap(s.cur) {
		s.flush()
	}
}

func (s *onePassSink) flush() {
	if len(s.cur) == 0 {
		return
	}
	n := s.d.outstanding.Add(int64(len(s.cur)))
	s.d.rec.Max(obs.ScanPeakRetainedEvents, n)
	s.ch <- s.cur
	s.cur = nil
}

func (s *onePassSink) Close(index int) {
	if s.inert {
		return
	}
	s.idx = index
	s.flush()
	close(s.ch)
	s.d.open--
}

func (s *onePassSink) Abort() {
	if s.inert {
		return
	}
	s.aborted = true
	if s.cur != nil {
		s.d.putChunk(s.cur)
		s.cur = nil
	}
	close(s.ch)
	s.d.open--
}

// analyzeRegionsOnePassStream is the region dispatcher behind every
// region fan-out: drive pushes the trace through a RegionFeed whose sinks
// hand each open region's events to a dedicated per-region worker. A worker
// feeds a pooled StreamKernel; only under RelaxReductions, whose reduction
// cuts need the whole graph, does it hold the region's events and build
// that one region's ddg.Graph at close. Workers are bounded by
// copts.WorkerCount(); nested target regions (recursion into the analyzed
// loop) oversubscribe the pool rather than block the feed, since an open
// outer region can only drain while the feed advances.
func analyzeRegionsOnePassStream(ctx context.Context, mod *ir.Module, line int, dopts ddg.Options, copts core.Options, drive func(context.Context, int, trace.SinkFactory) (int, error)) ([]RegionReport, error) {
	lm, err := findLoop(mod, line)
	if err != nil {
		return nil, err
	}
	if ctx == nil {
		ctx = context.Background()
	}
	ctx, span := obs.StartSpan(ctx, "region-analyze")
	defer span.End()
	rec := obs.FromContext(ctx)
	inner := copts
	inner.Workers = 1

	var (
		mu  sync.Mutex
		out []RegionReport
	)
	place := func(rr RegionReport) {
		mu.Lock()
		defer mu.Unlock()
		for len(out) <= rr.Index {
			out = append(out, RegionReport{})
		}
		out[rr.Index] = rr
	}

	d := &onePassDispatch{rec: rec}
	sem := make(chan struct{}, copts.WorkerCount())
	var wg sync.WaitGroup

	run := func(s *onePassSink) {
		defer wg.Done()
		life := startRegion(rec)
		var k *core.StreamKernel
		var held []trace.Event // RelaxReductions: the region's events, for its graph
		if !inner.RelaxReductions {
			k = core.AcquireStreamKernel(mod, dopts, inner, rec)
		}
		events := 0
		var feedErr error
		for chunk := range s.ch {
			switch {
			case k == nil:
				// Held events stay counted as retained until the region ends.
				held = append(held, chunk...)
			case feedErr == nil:
				// Chunks keep draining after a feed error (the region is
				// degraded, not the stream): stopping would deadlock the feed.
				sw := rec.StartTimer("tile-sweep")
				feedErr = core.Guard(0, "region", -1, func() error {
					for _, ev := range chunk {
						if err := k.Feed(ev.ID, ev.Addr); err != nil {
							return err
						}
					}
					return nil
				})
				sw.Stop()
			}
			if k != nil {
				d.outstanding.Add(-int64(len(chunk)))
			}
			events += len(chunk)
			d.putChunk(chunk)
		}
		rr := RegionReport{Index: s.idx, Events: events}
		err := feedErr
		switch {
		case s.aborted:
			// The stream failed or was canceled while this region was open:
			// it has no close index and no report slot.
		case err == nil:
			err = core.Guard(s.idx, "region", int64(s.idx), func() error {
				var ferr error
				if k != nil {
					rr.Report, ferr = k.Finish(ctx)
				} else {
					rr.Report, ferr = analyzeGraph(ctx, &trace.Trace{Module: mod, Events: held}, dopts, inner)
				}
				return ferr
			})
		default:
			// The feed ran before the close index existed; patch the
			// placeholder labels of any recovered panic.
			for _, ue := range core.UnitErrors(err) {
				if ue.Kind == "region" && ue.ID == -1 {
					ue.Unit = s.idx
					ue.ID = int64(s.idx)
				}
			}
		}
		if k != nil {
			k.Release()
		}
		d.outstanding.Add(-int64(len(held)))
		if s.aborted {
			life.abort()
		} else {
			life.finish(&rr, err)
			place(rr)
		}
		rec.GaugeDec(obs.ResidentRegions)
		if s.hasSem {
			<-sem
		}
	}

	factory := func() trace.RegionSink {
		s := &onePassSink{d: d, idx: -1}
		acquired := false
		select {
		case sem <- struct{}{}:
			acquired = true
		default:
			if d.open == 0 {
				select {
				case sem <- struct{}{}:
					acquired = true
				case <-ctx.Done():
					s.inert = true
					return s
				}
			}
			// d.open > 0 means the new region nests inside an open one
			// (recursion into the target loop). Blocking for a slot here
			// would deadlock: the outer region's worker can only finish
			// once the feed advances. Oversubscribe by the nesting depth.
		}
		s.hasSem = acquired
		s.ch = make(chan []trace.Event, streamChunkQueue)
		d.open++
		rec.GaugeInc(obs.ResidentRegions, obs.PeakResidentRegions)
		wg.Add(1)
		go run(s)
		return s
	}

	closed, scanErr := drive(ctx, lm.ID, factory)
	wg.Wait()
	if off, ok := trace.CorruptOffset(scanErr); ok {
		rec.SetCorruptByte(off)
	}
	if closed == 0 && scanErr == nil && ctx.Err() == nil {
		return nil, fmt.Errorf("pipeline: loop on line %d never executed", line)
	}
	return collectRegions(ctx, out, scanErr)
}

// regionRun is one region's lifecycle bookkeeping, shared by the streaming
// dispatcher and the indexed scan: the started/completed/failed counters,
// the "region" stage timer, the first-failure record, and Elapsed.
type regionRun struct {
	rec   *obs.Recorder
	timer obs.Timer
	start time.Time
}

func startRegion(rec *obs.Recorder) regionRun {
	r := regionRun{rec: rec}
	if rec != nil {
		r.start = time.Now()
		rec.Add(obs.RegionsStarted, 1)
	}
	r.timer = rec.StartTimer("region")
	return r
}

// finish settles rr with the region's outcome: a non-nil err lands in
// rr.Err under the "pipeline: region N" prefix and counts as a failure.
func (r regionRun) finish(rr *RegionReport, err error) {
	if err != nil {
		rr.Err = fmt.Errorf("pipeline: region %d: %w", rr.Index, err)
		if r.rec != nil {
			r.rec.Add(obs.RegionsFailed, 1)
			r.rec.RecordRegionFailure(rr.Err.Error())
		}
	} else if r.rec != nil {
		r.rec.Add(obs.RegionsCompleted, 1)
	}
	r.timer.Stop()
	if r.rec != nil {
		rr.Elapsed = time.Since(r.start)
	}
}

// abort settles a region that never closed (the stream failed or was
// canceled while it was open). Counting it failed keeps the lifecycle
// balance started == completed + failed.
func (r regionRun) abort() {
	r.timer.Stop()
	r.rec.Add(obs.RegionsFailed, 1)
}

// collectRegions finishes a region fan-out: on cancellation the reports are
// truncated at the first unfilled slot, so the returned prefix is dense,
// and the summary error joins the per-region errors in index order, then
// scanErr, then the cancellation error.
func collectRegions(ctx context.Context, out []RegionReport, scanErr error) ([]RegionReport, error) {
	if ctx.Err() != nil {
		for i := range out {
			if out[i].Report == nil && out[i].Err == nil {
				out = out[:i]
				break
			}
		}
	}
	errs := make([]error, 0, 3)
	for i := range out {
		if out[i].Err != nil {
			errs = append(errs, out[i].Err)
		}
	}
	if scanErr != nil {
		errs = append(errs, scanErr)
	}
	if err := core.Canceled(ctx); err != nil {
		errs = append(errs, err)
	}
	return out, errors.Join(errs...)
}

// feedTracer adapts a RegionFeed to the interpreter's Tracer interface, so
// a live execution feeds the one-pass kernels directly — trace events flow
// interpreter → region feed → kernel without ever being buffered, encoded,
// or written anywhere.
type feedTracer struct {
	feed *trace.RegionFeed
	err  error
}

// Exec implements interp.Tracer. The first feed error latches; subsequent
// events are dropped (the interpreter finishes or is canceled on its own).
func (s *feedTracer) Exec(id int32, addr int64) {
	if s.err == nil {
		s.err = s.feed.Push(trace.Event{ID: id, Addr: addr})
	}
}

// ExecBatch implements interp.BatchTracer for the fully fused live path:
// interpreter → region feed → kernel, one fan-out call per chunk.
func (s *feedTracer) ExecBatch(events []interp.Event) {
	for _, ev := range events {
		if s.err != nil {
			return
		}
		s.err = s.feed.Push(trace.Event{ID: ev.ID, Addr: ev.Addr})
	}
}

// AnalyzeLoopRegionsLiveCtx executes the module's main function and
// analyzes the dynamic regions of the loop on the given source line as the
// program runs: the fully fused record→scan→analyze pipeline, with no
// trace materialized at any layer. Region reports are byte-identical to
// recording the trace and running AnalyzeLoopRegionsStreamCtx over it.
func AnalyzeLoopRegionsLiveCtx(ctx context.Context, mod *ir.Module, line int, dopts ddg.Options, copts core.Options, budget core.Budget) (*interp.Result, []RegionReport, error) {
	var res *interp.Result
	regs, err := analyzeRegionsOnePassStream(ctx, mod, line, dopts, copts,
		func(ctx context.Context, loopID int, factory trace.SinkFactory) (int, error) {
			feed := trace.NewRegionFeed(ctx, mod, loopID, factory)
			sink := &feedTracer{feed: feed}
			ictx, sp := obs.StartSpan(ctx, "interp")
			m := interp.New(mod, interpConfig(budget, sink, true))
			r, rerr := m.RunContext(ictx, "main")
			sp.End()
			res = r
			if sink.err != nil {
				return feed.Closed(), sink.err
			}
			if rerr != nil {
				return feed.Closed(), feed.Fail(rerr)
			}
			return feed.Finish()
		})
	return res, regs, err
}

// LoopRegionStream returns the idx-th dynamic sub-trace of the source loop
// whose "for"/"while" keyword is on the given source line, reading only as
// much of the stream as needed to materialize it. Memory stays bounded by
// the largest region even when the requested region is deep into the trace.
func LoopRegionStream(mod *ir.Module, src trace.EventSource, line, idx int) (*trace.Trace, error) {
	lm, err := findLoop(mod, line)
	if err != nil {
		return nil, err
	}
	sc := trace.NewRegionScanner(mod, lm.ID, src)
	n := 0
	for {
		sub, err := sc.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		if n == idx {
			return sub, nil
		}
		n++
	}
	return nil, fmt.Errorf("pipeline: loop on line %d has %d dynamic regions, want index %d", line, n, idx)
}

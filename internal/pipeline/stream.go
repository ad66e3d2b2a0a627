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

// eventSink adapts an event consumer — a trace encoder, a container
// writer, a region feed — to the interpreter's Tracer, so events flow from
// the interpreter without being buffered. The first error latches;
// subsequent events are dropped (the interpreter finishes or is canceled on
// its own).
type eventSink struct {
	put func(trace.Event) error
	err error
}

// Exec implements interp.Tracer.
func (s *eventSink) Exec(id int32, addr int64) {
	if s.err == nil {
		s.err = s.put(trace.Event{ID: id, Addr: addr})
	}
}

// ExecBatch implements interp.BatchTracer: the plan dispatcher hands events
// over in recycled ~1K chunks, costing one dynamic dispatch per chunk
// instead of one per event.
func (s *eventSink) ExecBatch(events []interp.Event) {
	for _, ev := range events {
		if s.err != nil {
			return
		}
		s.err = s.put(trace.Event{ID: ev.ID, Addr: ev.Addr})
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
	enc := trace.NewEncoder(w)
	return record(ctx, mod, budget, enc.Write, enc.Close)
}

// record runs the module's main function with every event handed to put,
// then flushes the writer with done: the body of both recording formats.
func record(ctx context.Context, mod *ir.Module, budget core.Budget, put func(trace.Event) error, done func() error) (*interp.Result, error) {
	ctx, sp := obs.StartSpan(ctx, "record")
	defer sp.End()
	sink := &eventSink{put: put}
	m := interp.New(mod, interpConfig(budget, sink, true))
	res, err := m.RunContext(ctx, "main")
	if err != nil {
		return nil, err
	}
	if sink.err == nil {
		sink.err = done()
	}
	if sink.err != nil {
		return nil, fmt.Errorf("pipeline: recording trace: %w", sink.err)
	}
	return res, nil
}

// AnalyzeLoopRegionsStreamCtx scans src for the dynamic regions of the
// loop whose "for"/"while" keyword is on the given source line and analyzes
// them as they arrive. Region events flow straight from the scan into the
// per-region workers in bounded chunks, so peak memory scales with the
// kernels' live working set (O(live addresses × candidates)), not with
// region or trace length; only RelaxReductions holds each in-flight
// region's events, charged to copts.Budget.MaxAnalysisBytes. Each region's
// analysis runs with Workers=1 but otherwise inherits copts, and results
// land in region-index order, so the output is identical for any worker
// count.
//
// Failures degrade per region. One poisoned region — a budget exhausted
// mid-feed, a malformed event sequence, even a worker panic — records its
// error in its own RegionReport.Err slot while every other region is still
// scanned and analyzed. The returned summary error joins the per-region
// errors in region-index order, followed by the scan error (if the stream
// itself went bad) and the cancellation error; callers inspect causes with
// errors.Is/errors.As as usual. A scan failure is not fatal either: regions
// that closed before the stream went bad are analyzed and returned
// alongside the corruption diagnostic, so a truncated multi-gigabyte trace
// still yields every intact region.
func AnalyzeLoopRegionsStreamCtx(ctx context.Context, mod *ir.Module, src trace.EventSource, line int, dopts ddg.Options, copts core.Options) ([]RegionReport, error) {
	return analyzeStream(ctx, mod, src, line, -1, dopts, copts)
}

// analyzeStream is the sequential scan behind AnalyzeLoopRegionsStreamCtx
// and the unindexed trace files, selecting region want (< 0: every
// region). A selected scan stops reading once region want closes.
func analyzeStream(ctx context.Context, mod *ir.Module, src trace.EventSource, line, want int, dopts ddg.Options, copts core.Options) ([]RegionReport, error) {
	return analyzeRegionsOnePassStream(ctx, mod, line, want, dopts, copts,
		func(ctx context.Context, loopID int, factory trace.SinkFactory) (int, error) {
			return trace.FeedRegions(ctx, mod, loopID, want, src, factory)
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

// heldEventBytes is the budget charge of one event RelaxReductions holds
// for its replay: one 16-byte trace.Event.
const heldEventBytes = 16

// chargeHeld checks that n held events fit the analysis budget.
func chargeHeld(n int, b core.Budget) error {
	if need := int64(n) * heldEventBytes; b.MaxAnalysisBytes > 0 && need > b.MaxAnalysisBytes {
		return fmt.Errorf("relaxed-reduction region holds %d events, %d bytes, budget %d: %w",
			n, need, b.MaxAnalysisBytes, core.ErrResourceLimit)
	}
	return nil
}

// analyzeRegionsOnePassStream is the region dispatcher behind every
// streamed region analysis: drive pushes the trace through a RegionFeed
// whose sinks hand each open region's events to a dedicated per-region
// worker. A worker feeds a pooled StreamKernel; only under RelaxReductions,
// whose replay feeds the region twice, does it hold the region's events
// (charged to the analysis budget chunk by chunk) and hand them to
// AnalyzeRegion at close. Workers are bounded by copts.WorkerCount();
// nested target regions (recursion into the analyzed loop) oversubscribe
// the pool rather than block the feed, since an open outer region can only
// drain while the feed advances.
//
// want selects one close-order index (want < 0: every region), following
// the feed's selection rule: a region that closes with another index, or
// is aborted once region want has closed, is released without a report
// and without counting in the region lifecycle. The result is then the one
// report of region want, or the out-of-range error naming how many
// regions the loop has.
func analyzeRegionsOnePassStream(ctx context.Context, mod *ir.Module, line, want int, dopts ddg.Options, copts core.Options, drive func(context.Context, int, trace.SinkFactory) (int, error)) ([]RegionReport, error) {
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
		slot := rr.Index
		if want >= 0 {
			slot = 0
		}
		for len(out) <= slot {
			out = append(out, RegionReport{})
		}
		out[slot] = rr
	}

	d := &onePassDispatch{rec: rec}
	sem := make(chan struct{}, copts.WorkerCount())
	var wg sync.WaitGroup

	run := func(s *onePassSink) {
		defer wg.Done()
		life := startRegion(rec)
		// A relaxed region holds its events for AnalyzeRegion's replay;
		// any other region feeds a kernel as its chunks arrive.
		relax := inner.RelaxReductions
		var k *core.StreamKernel
		var held []trace.Event
		if !relax {
			k = core.AcquireStreamKernel(mod, dopts, inner, rec)
		}
		events := 0
		var feedErr error
		for chunk := range s.ch {
			n := int64(len(chunk))
			switch {
			case feedErr != nil:
				// Chunks keep draining after a failure (the region is
				// degraded, not the stream): stopping would deadlock the feed.
				d.outstanding.Add(-n)
			case relax:
				// Held events stay counted as retained until the region ends.
				if feedErr = chargeHeld(len(held)+len(chunk), inner.Budget); feedErr != nil {
					d.outstanding.Add(-int64(len(held)) - n)
					held = nil
				} else {
					held = append(held, chunk...)
				}
			default:
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
				d.outstanding.Add(-n)
			}
			events += len(chunk)
			d.putChunk(chunk)
		}
		keep := want < 0 || s.idx == want // an aborted sink has idx -1
		rr := RegionReport{Index: s.idx, Events: events}
		err := feedErr
		switch {
		case s.aborted || !keep:
			// The stream failed or was canceled while this region was open
			// (it has no close index and no report slot), or the region is
			// not the selected one.
		case err == nil:
			err = core.Guard(s.idx, "region", int64(s.idx), func() error {
				var ferr error
				if relax {
					rr.Report, ferr = AnalyzeRegion(ctx, &trace.Trace{Module: mod, Events: held}, dopts, inner)
				} else {
					rr.Report, ferr = k.Finish(ctx)
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
		switch {
		case !keep:
		case s.aborted:
			life.abort()
		default:
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
	if scanErr == nil && ctx.Err() == nil {
		if want >= 0 && closed <= want {
			return nil, regionRangeError(line, closed, want)
		}
		if closed == 0 {
			return nil, fmt.Errorf("pipeline: loop on line %d never executed", line)
		}
	}
	return collectRegions(ctx, out, scanErr)
}

// regionRangeError reports a selected region index the loop never reached.
func regionRangeError(line, n, want int) error {
	return fmt.Errorf("pipeline: loop on line %d has %d dynamic regions, want index %d", line, n, want)
}

// regionRun is one region's lifecycle bookkeeping, shared by the streaming
// dispatcher and the indexed scan: the started/completed/failed counters,
// the "region" stage timer, the first-failure record, and Elapsed. The
// counters move only when the region settles, so a region the selection
// rule releases leaves no trace in them.
type regionRun struct {
	rec   *obs.Recorder
	timer obs.Timer
	start time.Time
}

func startRegion(rec *obs.Recorder) regionRun {
	r := regionRun{rec: rec}
	if rec != nil {
		r.start = time.Now()
	}
	r.timer = rec.StartTimer("region")
	return r
}

// finish settles rr with the region's outcome: a non-nil err lands in
// rr.Err under the "pipeline: region N" prefix and counts as a failure.
func (r regionRun) finish(rr *RegionReport, err error) {
	r.rec.Add(obs.RegionsStarted, 1)
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
	r.rec.Add(obs.RegionsStarted, 1)
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

// AnalyzeLoopRegionsLiveCtx executes the module's main function and
// analyzes the dynamic regions of the loop on the given source line as the
// program runs: the fully fused record→scan→analyze pipeline, with no
// trace materialized at any layer. Region reports are byte-identical to
// recording the trace and running AnalyzeLoopRegionsStreamCtx over it.
func AnalyzeLoopRegionsLiveCtx(ctx context.Context, mod *ir.Module, line int, dopts ddg.Options, copts core.Options, budget core.Budget) (*interp.Result, []RegionReport, error) {
	return analyzeLive(ctx, mod, line, -1, dopts, copts, budget)
}

// analyzeLive is AnalyzeLoopRegionsLiveCtx selecting region want (< 0:
// every region). The program always runs to completion; a selected run
// stops feeding kernels once region want closes, and a program failure
// fails it outright, with no regions and the interpreter's own error.
func analyzeLive(ctx context.Context, mod *ir.Module, line, want int, dopts ddg.Options, copts core.Options, budget core.Budget) (*interp.Result, []RegionReport, error) {
	var res *interp.Result
	var runErr error
	regs, err := analyzeRegionsOnePassStream(ctx, mod, line, want, dopts, copts,
		func(ctx context.Context, loopID int, factory trace.SinkFactory) (int, error) {
			feed := trace.NewRegionFeed(ctx, mod, loopID, want, factory)
			sink := &eventSink{put: feed.Push}
			ictx, sp := obs.StartSpan(ctx, "interp")
			m := interp.New(mod, interpConfig(budget, sink, true))
			res, runErr = m.RunContext(ictx, "main")
			sp.End()
			if sink.err != nil {
				return feed.Closed(), sink.err
			}
			if runErr != nil {
				return feed.Closed(), feed.Fail(runErr)
			}
			return feed.Finish()
		})
	if want >= 0 && runErr != nil {
		return res, nil, runErr
	}
	return res, regs, err
}

// LoopRegionStream returns the idx-th dynamic sub-trace of the source loop
// whose "for"/"while" keyword is on the given source line, reading only as
// much of the stream as needed to materialize it. It runs the region feed
// under the dispatcher's selection rule, so memory stays bounded by the
// regions open at once — one, for a loop that does not recurse into
// itself — even when the requested region is deep into the trace. Their
// held events count toward the recorder's scan_peak_retained_events.
func LoopRegionStream(ctx context.Context, mod *ir.Module, src trace.EventSource, line, idx int) (*trace.Trace, error) {
	lm, err := findLoop(mod, line)
	if err != nil {
		return nil, err
	}
	c := &regionCapture{rec: obs.FromContext(ctx), want: idx}
	n, err := trace.FeedRegions(ctx, mod, lm.ID, idx, src, func() trace.RegionSink { return &captureSink{c: c} })
	if err != nil {
		return nil, err
	}
	if c.got == nil {
		return nil, regionRangeError(line, n, idx)
	}
	return &trace.Trace{Module: mod, Events: c.got}, nil
}

// regionCapture is LoopRegionStream's shared state: the selected region's
// events once it closes, and the events its open sinks hold.
type regionCapture struct {
	rec  *obs.Recorder
	want int
	live int64
	got  []trace.Event
}

// captureSink holds one region's events while the region is open.
type captureSink struct {
	c      *regionCapture
	events []trace.Event
}

func (s *captureSink) Event(ev trace.Event) {
	s.events = append(s.events, ev)
	s.c.live++
}

func (s *captureSink) Close(index int) {
	if index == s.c.want {
		s.c.got = s.events
	}
	s.Abort()
}

// Abort releases the sink's events. Held events only grow between
// releases, so the retained peak is sampled here.
func (s *captureSink) Abort() {
	s.c.rec.Max(obs.ScanPeakRetainedEvents, s.c.live)
	s.c.live -= int64(len(s.events))
	s.events = nil
}

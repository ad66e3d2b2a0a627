package main

// The replay workload is the record-once, analyze-many path: set-up records
// a Gauss-Seidel run to a VTR2 file, and each pass opens the file and
// analyzes every region of one loop through the footer index. Nothing is
// compiled or interpreted in the timed part, so VTR2 decode and the core
// stream kernel do nearly all the work.

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"github.com/example/vectrace/internal/core"
	"github.com/example/vectrace/internal/ddg"
	"github.com/example/vectrace/internal/ir"
	"github.com/example/vectrace/internal/kernels"
	"github.com/example/vectrace/internal/obs"
	"github.com/example/vectrace/internal/pipeline"
	"github.com/example/vectrace/internal/report"
	"github.com/example/vectrace/internal/trace"
)

// The replay program: kernels.GaussSeidel(replayN, replayT), analyzed at its
// @i-loop (replayT regions of (replayN-2)^2 stencil updates each, about
// 450k events per region). Four regions give each scan worker two, and keep
// an operation near 0.2 s, so a run holds enough operations for its 95th
// percentile. The program is fixed by the workload definition, not drawn
// from the seed, so every seed measures the same work.
const (
	replayN      = 64
	replayT      = 4
	replayMarker = "@i-loop"
	// scanWorkers is the region fan-out of a pass.
	scanWorkers = 2
)

// replayOpts is the analysis configuration of every replay pass.
var replayOpts = core.Options{Workers: scanWorkers}

// replayBench is the set-up replay workload.
type replayBench struct {
	mod  *ir.Module
	line int
	path string
	size int64
	// The reference, computed by the live path (interpretation feeding the
	// stream kernels, no trace file involved): region count, event total
	// and the canonical RegionsJSON bytes.
	refRegions int
	refEvents  int64
	refJSON    []byte
}

// setupReplay compiles the replay program, records it to a VTR2 file in the
// run's scratch directory, and computes the reference on the live path.
func setupReplay(ctx context.Context, e env) (bench, error) {
	k := kernels.GaussSeidel(replayN, replayT)
	line, err := k.FindLine(replayMarker)
	if err != nil {
		return nil, err
	}
	mod, err := pipeline.CompileCtx(ctx, k.Name+".c", k.Source)
	if err != nil {
		return nil, err
	}
	path := filepath.Join(e.scratch, "replay.vtr")
	if err := recordFile(ctx, mod, path); err != nil {
		return nil, err
	}
	st, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	_, regs, err := pipeline.AnalyzeLoopRegionsLiveCtx(ctx, mod, line, ddg.Options{}, replayOpts, core.Budget{})
	if err != nil {
		return nil, fmt.Errorf("live reference: %w", err)
	}
	js, err := report.RegionsJSON(regs)
	if err != nil {
		return nil, err
	}
	return &replayBench{
		mod: mod, line: line, path: path, size: st.Size(),
		refRegions: len(regs), refEvents: regionEvents(regs), refJSON: js,
	}, nil
}

// recordFile records mod's run to path as a VTR2 container.
func recordFile(ctx context.Context, mod *ir.Module, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	if _, err := pipeline.RecordContainerCtx(ctx, mod, w, core.Budget{}, trace.ContainerOptions{}); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func regionEvents(regs []pipeline.RegionReport) int64 {
	var n int64
	for _, r := range regs {
		n += int64(r.Events)
	}
	return n
}

func (b *replayBench) close() { os.Remove(b.path) }

// check compares one pass's region reports with the reference.
func (b *replayBench) check(regs []pipeline.RegionReport) error {
	if len(regs) != b.refRegions {
		return fmt.Errorf("replay: %d regions, reference has %d", len(regs), b.refRegions)
	}
	if ev := regionEvents(regs); ev != b.refEvents {
		return fmt.Errorf("replay: %d region events, reference has %d", ev, b.refEvents)
	}
	js, err := report.RegionsJSON(regs)
	if err != nil {
		return err
	}
	if !bytes.Equal(js, b.refJSON) {
		return errors.New("replay: RegionsJSON bytes differ from the live-path reference")
	}
	return nil
}

// open opens the recorded trace; rec (nil for untraced passes) counts the
// bytes and blocks read through it.
func (b *replayBench) open(rec *obs.Recorder) (*os.File, *trace.Opened, error) {
	f, err := os.Open(b.path)
	if err != nil {
		return nil, nil, err
	}
	o, err := trace.OpenTrace(f, b.size, rec)
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	if o.Container == nil {
		f.Close()
		return nil, nil, fmt.Errorf("replay: trace has no usable VTR2 index: %v", o.IndexErr)
	}
	return f, o, nil
}

// pass is one operation: open the file and analyze every region.
func (b *replayBench) pass(ctx context.Context) passResult {
	p := passResult{attempted: 1}
	t0 := time.Now()
	regs, err := b.scan(ctx, nil)
	lat := time.Since(t0)
	if err == nil {
		err = b.check(regs)
	}
	if err != nil {
		p.failed = 1
		p.mismatches = append(p.mismatches, err)
		return p
	}
	p.latencies = append(p.latencies, lat)
	p.events = b.refEvents
	return p
}

func (b *replayBench) scan(ctx context.Context, rec *obs.Recorder) ([]pipeline.RegionReport, error) {
	f, o, err := b.open(rec)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return pipeline.AnalyzeLoopRegionsOpened(ctx, o, b.mod, b.line, ddg.Options{}, replayOpts, scanWorkers)
}

// tracedPass times the open, a sequential Cursor drain of every event (the
// decode rate), the indexed scan itself with its bytes and blocks read, and
// then each region's decode and analysis one at a time. The scan's self
// time is its wall time minus that per-region work spread over the scan
// workers.
func (b *replayBench) tracedPass(ctx context.Context) (layerSample, passResult) {
	ls := layerSample{}
	p := passResult{attempted: 1}
	fail := func(err error) (layerSample, passResult) {
		p.failed = 1
		p.mismatches = append(p.mismatches, err)
		return ls, p
	}
	rec := obs.New()
	t := time.Now()
	f, o, err := b.open(rec)
	ls["trace.open_ms"] = ms(time.Since(t))
	if err != nil {
		return fail(err)
	}
	defer f.Close()
	c := o.Container

	const chunk = 1 << 16
	cur := c.Cursor()
	buf := make([]trace.Event, 0, chunk)
	t = time.Now()
	for s := 0; s < c.NumEvents(); s += chunk {
		if buf, err = cur.EventRange(buf[:0], s, min(s+chunk, c.NumEvents())); err != nil {
			return fail(err)
		}
	}
	ls["trace.decode_events_per_s"] = float64(c.NumEvents()) / time.Since(t).Seconds()

	bytes0, blocks0 := rec.Get(obs.TraceBytesRead), rec.Get(obs.TraceBlocksRead)
	t = time.Now()
	regs, err := pipeline.AnalyzeLoopRegionsOpened(ctx, o, b.mod, b.line, ddg.Options{}, replayOpts, scanWorkers)
	scanMs := ms(time.Since(t))
	if err == nil {
		err = b.check(regs)
	}
	if err != nil {
		return fail(err)
	}
	ls["pipeline.scan_ms"] = scanMs
	ls["trace.bytes_read"] = float64(rec.Get(obs.TraceBytesRead) - bytes0)
	ls["trace.blocks_read"] = float64(rec.Get(obs.TraceBlocksRead) - blocks0)
	ls["trace.blocks_read_per_block"] = ls["trace.blocks_read"] / float64(c.NumBlocks())

	lm := b.mod.LoopByLine(b.line)
	var decodeMs, coreMs float64
	serial := make([]pipeline.RegionReport, 0, b.refRegions)
	rc := c.Cursor()
	inner := replayOpts
	inner.Workers = 1
	for k, r := range c.RegionsOf(lm.ID) {
		t = time.Now()
		sub, err := rc.RegionTrace(b.mod, r)
		decodeMs += ms(time.Since(t))
		if err != nil {
			return fail(err)
		}
		t = time.Now()
		rep, err := pipeline.AnalyzeRegion(ctx, sub, ddg.Options{}, inner)
		coreMs += ms(time.Since(t))
		if err != nil {
			return fail(err)
		}
		addReport(ls, rep)
		serial = append(serial, pipeline.RegionReport{Index: k, Events: sub.Len(), Report: rep})
	}
	if err := b.check(serial); err != nil {
		return fail(fmt.Errorf("region-by-region: %w", err))
	}
	ls["core.ms"] = coreMs
	ls[sumCoreEvents] = float64(b.refEvents)
	ls["pipeline.self_ms"] = scanMs - (decodeMs+coreMs)/scanWorkers
	ls.finish()
	return ls, p
}

package pipeline_test

// Fault-injection suite for the streaming record/analyze workflow: every
// injected fault — truncation at every byte offset of a recorded trace,
// reader errors, writer errors, one-byte-at-a-time I/O — must surface as a
// typed error (errors.Is-able), never a panic, a hang, or a silently
// partial result.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"github.com/example/vectrace/internal/core"
	"github.com/example/vectrace/internal/ddg"
	"github.com/example/vectrace/internal/faultio"
	"github.com/example/vectrace/internal/ir"
	"github.com/example/vectrace/internal/pipeline"
	"github.com/example/vectrace/internal/testprog"
	"github.com/example/vectrace/internal/trace"
)

// recordedTrace compiles testprog.Fault and returns its module plus the recorded
// VTR1 byte stream.
func recordedTrace(t *testing.T) (*ir.Module, []byte) {
	t.Helper()
	mod, err := pipeline.Compile("fault.c", testprog.Fault)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := pipeline.Record(mod, &buf); err != nil {
		t.Fatal(err)
	}
	return mod, buf.Bytes()
}

// streamRegions runs the streaming analysis over raw bytes.
func streamRegions(mod *ir.Module, data []byte) ([]pipeline.RegionReport, error) {
	dec := trace.NewDecoder(bytes.NewReader(data))
	return pipeline.AnalyzeLoopRegionsStreamCtx(context.Background(), mod, dec, testprog.FaultInnerLine, ddg.Options{}, core.Options{Workers: 2})
}

// TestStreamTruncationSweep truncates a recorded trace at every byte offset
// and streams each prefix through the full region analysis. Every prefix
// must fail with an error wrapping trace.ErrCorruptTrace that names the
// byte offset and region index — and the regions that closed before the
// damage must still come back fully analyzed, matching the no-fault run.
func TestStreamTruncationSweep(t *testing.T) {
	mod, data := recordedTrace(t)
	intact, err := streamRegions(mod, data)
	if err != nil {
		t.Fatal(err)
	}
	if len(intact) != 3 {
		t.Fatalf("no-fault run yielded %d regions, want 3", len(intact))
	}
	for off := 0; off < len(data); off++ {
		dec := trace.NewDecoder(&faultio.TruncatingReader{R: bytes.NewReader(data), N: int64(off)})
		regs, err := pipeline.AnalyzeLoopRegionsStreamCtx(context.Background(), mod, dec, testprog.FaultInnerLine, ddg.Options{}, core.Options{Workers: 2})
		if err == nil {
			t.Fatalf("offset %d: truncated stream analyzed without error", off)
		}
		if !errors.Is(err, trace.ErrCorruptTrace) {
			t.Fatalf("offset %d: error %v does not wrap ErrCorruptTrace", off, err)
		}
		if !strings.Contains(err.Error(), "byte offset") {
			t.Fatalf("offset %d: error %q does not name the byte offset", off, err)
		}
		if !strings.Contains(err.Error(), "scanning region") {
			t.Fatalf("offset %d: error %q does not name the region index", off, err)
		}
		// Degrade gracefully: regions that closed before the truncation are
		// analyzed and identical to the no-fault run.
		if len(regs) > len(intact) {
			t.Fatalf("offset %d: %d regions from a prefix of a %d-region trace", off, len(regs), len(intact))
		}
		for i, rr := range regs {
			if rr.Err != nil {
				t.Fatalf("offset %d: intact region %d carries error %v", off, i, rr.Err)
			}
			if !reflect.DeepEqual(rr, intact[i]) {
				t.Fatalf("offset %d: region %d differs from the no-fault analysis", off, i)
			}
		}
	}
}

// TestStreamReaderError injects a genuine I/O failure (not truncation) and
// checks it surfaces as the injected sentinel without being misclassified
// as trace corruption.
func TestStreamReaderError(t *testing.T) {
	mod, data := recordedTrace(t)
	sentinel := fmt.Errorf("disk on fire")
	dec := trace.NewDecoder(&faultio.ErrReader{R: bytes.NewReader(data), FailAt: int64(len(data) / 2), Err: sentinel})
	_, err := pipeline.AnalyzeLoopRegionsStreamCtx(context.Background(), mod, dec, testprog.FaultInnerLine, ddg.Options{}, core.Options{Workers: 2})
	if !errors.Is(err, sentinel) {
		t.Fatalf("error %v does not wrap the injected reader error", err)
	}
	if errors.Is(err, trace.ErrCorruptTrace) {
		t.Fatalf("reader I/O failure misclassified as trace corruption: %v", err)
	}
}

// TestStreamShortReads drives the whole streaming analysis through a reader
// delivering one byte per call; the result must be byte-identical to the
// clean run.
func TestStreamShortReads(t *testing.T) {
	mod, data := recordedTrace(t)
	want, err := streamRegions(mod, data)
	if err != nil {
		t.Fatal(err)
	}
	dec := trace.NewDecoder(&faultio.ShortReader{R: bytes.NewReader(data)})
	got, err := pipeline.AnalyzeLoopRegionsStreamCtx(context.Background(), mod, dec, testprog.FaultInnerLine, ddg.Options{}, core.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("short reads changed the analysis result")
	}
}

// TestRecordWriterFaults injects write failures at several offsets during
// trace recording; each must surface as a typed recording error rather than
// leaving a silently truncated file.
func TestRecordWriterFaults(t *testing.T) {
	mod, data := recordedTrace(t)
	for _, failAt := range []int64{0, 1, int64(len(data) / 2), int64(len(data)) - 1} {
		var buf bytes.Buffer
		w := &faultio.ErrWriter{W: &buf, FailAt: failAt}
		_, err := pipeline.Record(mod, w)
		if err == nil {
			t.Fatalf("failAt=%d: recording over a failing writer succeeded", failAt)
		}
		if !errors.Is(err, faultio.ErrInjected) {
			t.Fatalf("failAt=%d: error %v does not wrap the injected writer error", failAt, err)
		}
		if !strings.Contains(err.Error(), "recording trace") {
			t.Fatalf("failAt=%d: error %q does not identify the recording stage", failAt, err)
		}
	}
}

// TestStreamCorruptTailKeepsIntactRegions flips a byte in the recorded
// stream's tail and checks the scanner reports corruption while the regions
// that closed earlier are still analyzed — the degrade-gracefully contract
// on real (non-truncating) corruption.
func TestStreamCorruptTailKeepsIntactRegions(t *testing.T) {
	mod, data := recordedTrace(t)
	intact, err := streamRegions(mod, data)
	if err != nil {
		t.Fatal(err)
	}
	// Rewrite the final event byte range with garbage that decodes to an
	// out-of-module instruction ID, keeping earlier regions decodable.
	corrupt := append([]byte{}, data...)
	corrupt[len(corrupt)-2] ^= 0x55
	regs, err := streamRegions(mod, corrupt)
	if err == nil {
		// The flip may still decode to an in-module event; force the issue
		// with a guaranteed-bad varint instead.
		corrupt[len(corrupt)-2] = 0x80
		regs, err = streamRegions(mod, corrupt)
	}
	if err == nil {
		t.Fatal("corrupted tail analyzed without error")
	}
	if !errors.Is(err, trace.ErrCorruptTrace) {
		t.Fatalf("error %v does not wrap ErrCorruptTrace", err)
	}
	if len(regs) > 0 {
		for i, rr := range regs {
			if rr.Err == nil && !reflect.DeepEqual(rr, intact[i]) {
				t.Fatalf("intact region %d differs from the no-fault analysis", i)
			}
		}
	}
}

// TestStreamCancellationReleasesWorkers cancels the context before the
// stream ends; the analysis must return promptly with an error wrapping
// both core.ErrCanceled and context.Canceled, and must not deadlock on the
// worker feed channel.
func TestStreamCancellationReleasesWorkers(t *testing.T) {
	mod, data := recordedTrace(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	dec := trace.NewDecoder(bytes.NewReader(data))
	_, err := pipeline.AnalyzeLoopRegionsStreamCtx(ctx, mod, dec, testprog.FaultInnerLine, ddg.Options{}, core.Options{Workers: 2})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error %v does not wrap context.Canceled", err)
	}
	if !errors.Is(err, core.ErrCanceled) {
		t.Fatalf("error %v does not wrap core.ErrCanceled", err)
	}
}

// TestStreamMatchesInMemoryNoFault pins the golden no-fault contract: the
// streaming analysis and the in-memory analysis agree region for region,
// report for report.
func TestStreamMatchesInMemoryNoFault(t *testing.T) {
	mod, data := recordedTrace(t)
	events, err := trace.DecodeBytes(data)
	if err != nil {
		t.Fatal(err)
	}
	tr := &trace.Trace{Module: mod, Events: events}
	want, err := referenceRegions(tr, testprog.FaultInnerLine, ddg.Options{}, core.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	got, err := streamRegions(mod, data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("streaming and in-memory analyses disagree on the no-fault path")
	}
}

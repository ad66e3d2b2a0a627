package pipeline_test

// Differential observability tests: attaching an obs.Recorder to the
// context must not change a single byte of the analysis output — same
// reports, same errors — for both resident and decoded event sources,
// across worker counts, tile widths, and the relaxed-reduction graph route. Separately, the counters the hooks feed
// must cohere with the returned reports (every region started is completed
// or failed, DDG totals match the graphs, stage spans are present).

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"testing"

	"github.com/example/vectrace/internal/core"
	"github.com/example/vectrace/internal/ddg"
	"github.com/example/vectrace/internal/obs"
	"github.com/example/vectrace/internal/pipeline"
	"github.com/example/vectrace/internal/testprog"
	"github.com/example/vectrace/internal/trace"
)

// renderRegions flattens region reports into the exact text the CLI prints,
// so "byte-identical output" is checked against the user-visible artifact.
func renderRegions(regs []pipeline.RegionReport, err error) string {
	var sb strings.Builder
	for _, rr := range regs {
		fmt.Fprintf(&sb, "== region %d/%d: %d events ==\n", rr.Index+1, len(regs), rr.Events)
		if rr.Err != nil {
			fmt.Fprintf(&sb, "error: %v\n", rr.Err)
			continue
		}
		sb.WriteString(rr.Report.String())
	}
	if err != nil {
		fmt.Fprintf(&sb, "summary error: %v\n", err)
	}
	return sb.String()
}

// TestObservedOutputIdentical is the tentpole's differential guarantee:
// with and without a recorder, in-memory and streaming, workers {1, 4},
// the stream kernel with and without the RelaxReductions replay — one
// rendered artifact.
func TestObservedOutputIdentical(t *testing.T) {
	const srcName = "obsdiff.c"
	src := testprog.Random(3)
	mod, _, tr, err := testprog.CompileAndTrace(srcName, src)
	if err != nil {
		t.Fatalf("pipeline failed:\n%s\nerror: %v", src, err)
	}
	encoded := encodeTrace(t, tr)
	dopts := ddg.Options{}
	for _, lm := range mod.Loops {
		for _, workers := range []int{1, 4} {
			for _, relax := range []bool{false, true} {
				copts := core.Options{Workers: workers, RelaxReductions: relax}
				name := fmt.Sprintf("line%d/w%d/relax=%v", lm.Line, workers, relax)
				inMemory := func(ctx context.Context) ([]pipeline.RegionReport, error) {
					return pipeline.AnalyzeLoopRegionsStreamCtx(ctx, mod, &trace.SliceSource{Events: tr.Events}, lm.Line, dopts, copts)
				}

				plainRegs, plainErr := inMemory(context.Background())
				plain := renderRegions(plainRegs, plainErr)

				rec := obs.New()
				ctx := obs.WithRecorder(context.Background(), rec)
				obsRegs, obsErr := inMemory(ctx)
				observed := renderRegions(obsRegs, obsErr)
				if plain != observed {
					t.Fatalf("%s: in-memory output differs with recorder attached:\n--- plain ---\n%s--- observed ---\n%s",
						name, plain, observed)
				}

				srec := obs.New()
				sctx := obs.WithRecorder(context.Background(), srec)
				dec := trace.NewDecoder(bytes.NewReader(encoded))
				streamRegs, streamErr := pipeline.AnalyzeLoopRegionsStreamCtx(sctx, mod, dec, lm.Line, dopts, copts)
				streamed := renderRegions(streamRegs, streamErr)
				if plain != streamed {
					t.Fatalf("%s: streaming output differs with recorder attached:\n--- plain ---\n%s--- observed stream ---\n%s",
						name, plain, streamed)
				}

				// Elapsed is the one field observability may set; it must be
				// populated under a recorder and zero without one.
				for i := range plainRegs {
					if plainRegs[i].Elapsed != 0 {
						t.Errorf("%s: unobserved region %d has Elapsed %v, want 0", name, i, plainRegs[i].Elapsed)
					}
					if plainRegs[i].Err == nil && obsRegs[i].Elapsed <= 0 {
						t.Errorf("%s: observed region %d has no Elapsed", name, i)
					}
				}
			}
		}
	}
}

// TestObservedCountersCohere cross-checks the recorder against the reports
// it observed: region lifecycle balances, graph totals match, spans and
// aggregates name the expected stages, and the streaming gauges return to
// zero.
func TestObservedCountersCohere(t *testing.T) {
	src := testprog.Random(5)
	mod, _, tr, err := testprog.CompileAndTrace("obscount.c", src)
	if err != nil {
		t.Fatalf("pipeline failed:\n%s\nerror: %v", src, err)
	}
	encoded := encodeTrace(t, tr)
	lm := mod.Loops[0]

	rec := obs.New()
	ctx := obs.WithRecorder(context.Background(), rec)
	dec := trace.NewDecoder(bytes.NewReader(encoded))
	regs, err := pipeline.AnalyzeLoopRegionsStreamCtx(ctx, mod, dec, lm.Line, ddg.Options{}, core.Options{Workers: 2})
	if err != nil {
		t.Fatalf("stream analysis: %v", err)
	}

	started := rec.Get(obs.RegionsStarted)
	completed := rec.Get(obs.RegionsCompleted)
	failed := rec.Get(obs.RegionsFailed)
	if started != int64(len(regs)) {
		t.Errorf("RegionsStarted = %d, want %d", started, len(regs))
	}
	if completed+failed != started {
		t.Errorf("lifecycle unbalanced: started %d, completed %d + failed %d", started, completed, failed)
	}
	if failed != 0 {
		t.Errorf("RegionsFailed = %d on a clean run", failed)
	}
	if got := rec.Get(obs.RegionsScanned); got != int64(len(regs)) {
		t.Errorf("RegionsScanned = %d, want %d", got, len(regs))
	}
	if got, want := rec.Get(obs.EventsScanned), int64(len(tr.Events)); got != want {
		t.Errorf("EventsScanned = %d, want %d (whole stream)", got, want)
	}
	if got, want := rec.Get(obs.TraceBytesRead), int64(0); got != want {
		// Bytes are counted by the CLI's CountingReader, not here.
		t.Errorf("TraceBytesRead = %d, want %d without a CountingReader", got, want)
	}

	var wantNodes, wantCands, wantParts int64
	for _, rr := range regs {
		wantNodes += int64(rr.Report.TotalNodes)
		for _, ir := range rr.Report.PerInstr {
			wantCands++
			wantParts += int64(ir.Partitions)
		}
	}
	if got := rec.Get(obs.DDGNodes); got != wantNodes {
		t.Errorf("DDGNodes = %d, want %d (sum over region graphs)", got, wantNodes)
	}
	if got := rec.Get(obs.CandidatesAnalyzed); got != wantCands {
		t.Errorf("CandidatesAnalyzed = %d, want %d", got, wantCands)
	}
	if got := rec.Get(obs.PartitionsEmitted); got != wantParts {
		t.Errorf("PartitionsEmitted = %d, want %d", got, wantParts)
	}
	if got := rec.Get(obs.ResidentRegions); got != 0 {
		t.Errorf("ResidentRegions = %d after the run, want 0", got)
	}
	if rec.Get(obs.PeakResidentRegions) < 1 {
		t.Error("PeakResidentRegions never rose above 0")
	}
	if rec.Get(obs.ScanPeakRetainedEvents) < 1 {
		t.Error("ScanPeakRetainedEvents never recorded")
	}
	if rec.Get(obs.TilesDispatched) < 1 {
		t.Error("TilesDispatched never recorded")
	}

	rs := rec.Stats("test", nil)
	for _, stage := range []string{"region-analyze"} {
		if _, ok := rs.SpanTotals[stage]; !ok {
			t.Errorf("span_totals missing stage %q (have %v)", stage, keys(rs.SpanTotals))
		}
	}
	for _, timer := range []string{"region", "tile-sweep", "stride"} {
		agg, ok := rs.SpanTotals[timer]
		if !ok || agg.Count < 1 {
			t.Errorf("span_totals missing timer %q (have %v)", timer, keys(rs.SpanTotals))
		}
	}
}

func keys(m map[string]obs.SpanAgg) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}

// TestObservedFailurePath feeds a truncated stream under a recorder and
// checks the failure side of the schema: the corrupt byte offset lands in
// the stats document and intact regions still analyze identically.
func TestObservedFailurePath(t *testing.T) {
	src := testprog.Random(7)
	mod, _, tr, err := testprog.CompileAndTrace("obsfail.c", src)
	if err != nil {
		t.Fatalf("pipeline failed: %v", err)
	}
	encoded := encodeTrace(t, tr)
	lm := mod.Loops[0]
	cut := len(encoded) * 3 / 4

	plainRegs, plainErr := pipeline.AnalyzeLoopRegionsStreamCtx(context.Background(), mod,
		trace.NewDecoder(bytes.NewReader(encoded[:cut])), lm.Line, ddg.Options{}, core.Options{Workers: 1})
	if plainErr == nil {
		t.Fatal("truncated stream analyzed cleanly; pick a smaller cut")
	}

	rec := obs.New()
	ctx := obs.WithRecorder(context.Background(), rec)
	obsRegs, obsErr := pipeline.AnalyzeLoopRegionsStreamCtx(ctx, mod,
		trace.NewDecoder(bytes.NewReader(encoded[:cut])), lm.Line, ddg.Options{}, core.Options{Workers: 1})
	if renderRegions(plainRegs, plainErr) != renderRegions(obsRegs, obsErr) {
		t.Fatal("failure-path output differs with recorder attached")
	}

	off, ok := trace.CorruptOffset(obsErr)
	if !ok {
		t.Fatalf("no corrupt offset in error chain: %v", obsErr)
	}
	rs := rec.Stats("test", nil)
	if rs.Failures.CorruptAtByte != off {
		t.Errorf("stats corrupt_at_byte = %d, want %d", rs.Failures.CorruptAtByte, off)
	}
}

package pipeline_test

// Differential battery for the VTR2 container: the indexed parallel region
// scan must be byte-identical to the VTR1 sequential oracle — same
// RegionReports (the inputs to Tables 1–3), same error surface, same
// RunStats-relevant counters — across random programs × block sizes ×
// worker counts. The battery also covers the degrade-per-region contract
// on damaged containers and the CLI-visible error texts shared by both
// formats.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"github.com/example/vectrace/internal/core"
	"github.com/example/vectrace/internal/ddg"
	"github.com/example/vectrace/internal/faultio"
	"github.com/example/vectrace/internal/ir"
	"github.com/example/vectrace/internal/obs"
	"github.com/example/vectrace/internal/pipeline"
	"github.com/example/vectrace/internal/testprog"
	"github.com/example/vectrace/internal/trace"
)

// diffBlockSizes is the ISSUE-mandated block-size axis: one block per few
// events, the default, and blocks larger than most traces (single block).
var diffBlockSizes = []int{1 << 10, 64 << 10, 1 << 20}

// diffWorkerCounts returns the worker-count axis {1, 4, GOMAXPROCS}.
func diffWorkerCounts() []int {
	return []int{1, 4, runtime.GOMAXPROCS(0)}
}

// recordBoth records mod's execution in both formats.
func recordBoth(t *testing.T, mod *ir.Module, opts trace.ContainerOptions) (vtr1, vtr2 []byte) {
	t.Helper()
	var b1, b2 bytes.Buffer
	if _, err := pipeline.Record(mod, &b1); err != nil {
		t.Fatal(err)
	}
	if _, err := pipeline.RecordContainer(mod, &b2, opts); err != nil {
		t.Fatal(err)
	}
	return b1.Bytes(), b2.Bytes()
}

// openContainer opens VTR2 bytes, failing the test on an unusable index.
func openContainer(t *testing.T, data []byte) *trace.Container {
	t.Helper()
	c, err := trace.OpenContainer(bytes.NewReader(data), int64(len(data)), nil)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// indexed wraps an opened container so AnalyzeLoopRegionsOpened takes its
// indexed parallel scan.
func indexed(c *trace.Container) *trace.Opened {
	return &trace.Opened{Format: trace.FormatVTR2, Container: c}
}

// TestDifferentialVTR2MatchesVTR1 is the headline equivalence proof: for
// random programs, every loop, every block size, and every worker count,
// the VTR2 indexed parallel analysis — and the sequential VTR2 block walk
// a damaged index falls back to — returns RegionReports deeply equal to
// the VTR1 sequential stream oracle — the exact values Tables 1–3 and the
// per-region error surface are derived from.
func TestDifferentialVTR2MatchesVTR1(t *testing.T) {
	const programs = 5
	for seed := int64(300); seed < 300+programs; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			src := testprog.Random(seed)
			mod, err := pipeline.Compile(fmt.Sprintf("diff%d.c", seed), src)
			if err != nil {
				t.Fatalf("compile failed:\n%s\nerror: %v", src, err)
			}
			dopts, copts := ddg.Options{}, core.Options{}

			var vtr1 []byte
			containers := make(map[int][]byte, len(diffBlockSizes))
			for _, bs := range diffBlockSizes {
				v1, v2 := recordBoth(t, mod, trace.ContainerOptions{BlockBytes: bs, Codec: "flate"})
				vtr1 = v1
				containers[bs] = v2
			}

			for _, line := range testprog.LoopLines(mod) {
				oracle, err := pipeline.AnalyzeLoopRegionsStreamCtx(context.Background(), mod,
					trace.NewDecoder(bytes.NewReader(vtr1)), line, dopts, copts)
				if err != nil {
					t.Fatalf("line %d: sequential oracle failed: %v", line, err)
				}
				for _, bs := range diffBlockSizes {
					walk, err := pipeline.AnalyzeLoopRegionsStreamCtx(context.Background(), mod,
						trace.NewBlockSource(bytes.NewReader(containers[bs]), nil), line, dopts, copts)
					if err != nil {
						t.Fatalf("line %d block %d: sequential block walk failed: %v", line, bs, err)
					}
					if !reflect.DeepEqual(walk, oracle) {
						t.Fatalf("line %d block %d: sequential block walk diverges from the VTR1 oracle\nprogram:\n%s",
							line, bs, src)
					}
					c := openContainer(t, containers[bs])
					for _, workers := range diffWorkerCounts() {
						got, err := pipeline.AnalyzeLoopRegionsOpened(context.Background(), indexed(c), mod, line, dopts, copts, workers)
						if err != nil {
							t.Fatalf("line %d block %d workers %d: %v", line, bs, workers, err)
						}
						if !reflect.DeepEqual(got, oracle) {
							t.Fatalf("line %d block %d workers %d: indexed analysis diverges from the VTR1 oracle\nprogram:\n%s",
								line, bs, workers, src)
						}
					}
				}
			}
		})
	}
}

// diffCounterParity is the RunStats counter subset that must be identical
// between the sequential and indexed paths: the region lifecycle and every
// analysis-output counter. Deliberately absent: events_scanned (the
// sequential scanner consumes the whole trace, the index only region
// ranges), trace_bytes/blocks (different access pattern by design), and
// region_index_hits (definitionally index-only).
var diffCounterParity = []obs.Counter{
	obs.RegionsScanned,
	obs.RegionsStarted,
	obs.RegionsCompleted,
	obs.RegionsFailed,
	obs.DDGNodes,
	obs.DDGEdges,
	obs.CandidatesAnalyzed,
	obs.TilesDispatched,
	obs.PartitionsEmitted,
	obs.UnitVecOps,
	obs.NonUnitVecOps,
}

// TestDifferentialCounterParity runs both paths under fresh recorders and
// checks the shared RunStats counters agree, while the access-pattern
// counters prove the index actually changed the I/O shape.
func TestDifferentialCounterParity(t *testing.T) {
	mod, err := pipeline.Compile("fault.c", testprog.Fault)
	if err != nil {
		t.Fatal(err)
	}
	vtr1, vtr2 := recordBoth(t, mod, trace.ContainerOptions{BlockBytes: 512, Codec: "flate"})

	seqRec := obs.New()
	seqCtx := obs.WithRecorder(context.Background(), seqRec)
	seq, err := pipeline.AnalyzeLoopRegionsStreamCtx(seqCtx, mod,
		trace.NewDecoder(bytes.NewReader(vtr1)), testprog.FaultInnerLine, ddg.Options{}, core.Options{})
	if err != nil {
		t.Fatal(err)
	}

	idxRec := obs.New()
	idxCtx := obs.WithRecorder(context.Background(), idxRec)
	c, err := trace.OpenContainer(bytes.NewReader(vtr2), int64(len(vtr2)), idxRec)
	if err != nil {
		t.Fatal(err)
	}
	idx, err := pipeline.AnalyzeLoopRegionsOpened(idxCtx, indexed(c), mod, testprog.FaultInnerLine, ddg.Options{}, core.Options{}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(idx) != len(seq) {
		t.Fatalf("indexed %d regions, sequential %d", len(idx), len(seq))
	}

	for _, ctr := range diffCounterParity {
		if s, i := seqRec.Get(ctr), idxRec.Get(ctr); s != i {
			t.Errorf("counter %s: sequential %d, indexed %d", ctr.Name(), s, i)
		}
	}
	// The index path must show its access pattern: blocks fetched, region
	// lookups answered by the footer, no VTR1 byte counting.
	if idxRec.Get(obs.TraceBlocksRead) == 0 {
		t.Error("indexed path read no container blocks")
	}
	if got, want := idxRec.Get(obs.RegionIndexHits), int64(len(idx)); got != want {
		t.Errorf("region_index_hits = %d, want %d", got, want)
	}
	if seqRec.Get(obs.TraceBlocksRead) != 0 {
		t.Error("sequential VTR1 path counted container blocks")
	}
	// The sequential scanner consumes every event; the indexed scan only
	// the loop's regions — confirm the divergence the parity list excludes.
	if seqRec.Get(obs.EventsScanned) < idxRec.Get(obs.EventsScanned) {
		t.Errorf("events_scanned: sequential %d < indexed %d",
			seqRec.Get(obs.EventsScanned), idxRec.Get(obs.EventsScanned))
	}
}

// TestInstanceSeekReadsOnlyCoveringBlocks pins the `analyze -instance K`
// acceptance criterion at the pipeline layer: analyzing one region of a
// many-block container through the opened-trace entry point decodes only
// the blocks its indexed byte range covers.
func TestInstanceSeekReadsOnlyCoveringBlocks(t *testing.T) {
	mod, err := pipeline.Compile("fault.c", testprog.Fault)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := pipeline.RecordContainer(mod, &buf, trace.ContainerOptions{BlockBytes: 64, Codec: "none"}); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()

	rec := obs.New()
	o, err := trace.OpenTrace(bytes.NewReader(data), int64(len(data)), rec)
	if err != nil {
		t.Fatal(err)
	}
	if o.Container == nil || o.IndexErr != nil {
		t.Fatalf("open = {container=%v indexErr=%v}", o.Container, o.IndexErr)
	}
	total := o.Container.NumBlocks()
	if total < 8 {
		t.Fatalf("want a many-block container, got %d blocks", total)
	}
	regs, err := pipeline.AnalyzeOpened(context.Background(), o, mod, testprog.FaultInnerLine, 1, ddg.Options{}, core.Options{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(regs) != 1 || regs[0].Events == 0 {
		t.Fatalf("seek returned %d regions (%+v)", len(regs), regs)
	}
	read := rec.Get(obs.TraceBlocksRead)
	covering := int64(regs[0].Events/8 + 2) // 64-byte blocks hold ≥ 8 single-byte events
	if read == 0 || read > covering {
		t.Fatalf("instance seek read %d blocks, want 1..%d of %d", read, covering, total)
	}
	if rec.Get(obs.RegionIndexHits) != 1 {
		t.Fatalf("region_index_hits = %d, want 1", rec.Get(obs.RegionIndexHits))
	}

	// The sequential scan agrees on the region's size and report.
	seq, err := pipeline.AnalyzeOpened(context.Background(), o, mod, testprog.FaultInnerLine, 1, ddg.Options{}, core.Options{}, -1)
	if err != nil || len(seq) != 1 {
		t.Fatalf("sequential scan: %d regions, err %v", len(seq), err)
	}
	if regs[0].Events != seq[0].Events || regs[0].Report.String() != seq[0].Report.String() {
		t.Fatal("indexed seek and sequential scan disagree on the region")
	}
}

// TestDifferentialCLIErrorTexts: the user-facing error texts for bad lines,
// never-executed loops, and out-of-range instances are identical whichever
// format the trace file is in.
func TestDifferentialCLIErrorTexts(t *testing.T) {
	mod, err := pipeline.Compile("fault.c", testprog.Fault)
	if err != nil {
		t.Fatal(err)
	}
	vtr1, vtr2 := recordBoth(t, mod, trace.ContainerOptions{BlockBytes: 512})
	open := func(data []byte) *trace.Opened {
		t.Helper()
		o, err := trace.OpenTrace(bytes.NewReader(data), int64(len(data)), nil)
		if err != nil {
			t.Fatal(err)
		}
		return o
	}
	errText := func(err error) string {
		if err == nil {
			return "<nil>"
		}
		return err.Error()
	}

	for _, tc := range []struct {
		name string
		call func(o *trace.Opened) error
	}{
		{"no-loop-line", func(o *trace.Opened) error {
			_, err := pipeline.AnalyzeLoopRegionsOpened(context.Background(), o, mod, 2, ddg.Options{}, core.Options{}, 2)
			return err
		}},
		{"bad-instance", func(o *trace.Opened) error {
			_, err := pipeline.AnalyzeOpened(context.Background(), o, mod, testprog.FaultInnerLine, 99, ddg.Options{}, core.Options{}, 2)
			return err
		}},
		{"baselines-bad-instance", func(o *trace.Opened) error {
			_, _, err := pipeline.AnalyzeKumarCtx(context.Background(), mod, o.Source(), testprog.FaultInnerLine, 99, ddg.Options{}, core.Options{})
			return err
		}},
	} {
		e1 := tc.call(open(vtr1))
		e2 := tc.call(open(vtr2))
		if e1 == nil || e2 == nil || errText(e1) != errText(e2) {
			t.Errorf("%s: vtr1 error %q, vtr2 error %q", tc.name, errText(e1), errText(e2))
		}
	}
}

// TestVTR2TruncationSweep truncates a recorded container at every byte
// offset and runs the opened-trace analysis on each prefix. Truncation
// always destroys the footer, so every prefix takes the sequential salvage
// path; the VTR1 degradation contract carries over exactly — intact leading
// regions match the clean run, damage surfaces as typed corruption naming
// the byte offset, and a prefix that still holds every block analyzes
// completely.
func TestVTR2TruncationSweep(t *testing.T) {
	mod, err := pipeline.Compile("fault.c", testprog.Fault)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := pipeline.RecordContainer(mod, &buf, trace.ContainerOptions{BlockBytes: 256, Codec: "flate"}); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()

	o, err := trace.OpenTrace(bytes.NewReader(data), int64(len(data)), nil)
	if err != nil {
		t.Fatal(err)
	}
	intact, err := pipeline.AnalyzeLoopRegionsOpened(context.Background(), o, mod, testprog.FaultInnerLine, ddg.Options{}, core.Options{}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(intact) != 3 {
		t.Fatalf("clean container yielded %d regions, want 3", len(intact))
	}

	for off := 0; off < len(data); off++ {
		prefix := data[:off]
		op, err := trace.OpenTrace(bytes.NewReader(prefix), int64(off), nil)
		if err != nil {
			if !errors.Is(err, trace.ErrCorruptTrace) {
				t.Fatalf("offset %d: open error %v is not typed corruption", off, err)
			}
			continue
		}
		if op.Container != nil {
			t.Fatalf("offset %d: truncated container still opened with a usable index", off)
		}
		regs, aerr := pipeline.AnalyzeLoopRegionsOpened(context.Background(), op, mod, testprog.FaultInnerLine, ddg.Options{}, core.Options{}, 2)
		if aerr == nil {
			// The cut only removed footer bytes: the full event stream
			// survived, so the salvage analysis must equal the clean run.
			if !reflect.DeepEqual(regs, intact) {
				t.Fatalf("offset %d: complete salvage analysis differs from the clean run", off)
			}
			continue
		}
		if !errors.Is(aerr, trace.ErrCorruptTrace) {
			t.Fatalf("offset %d: error %v does not wrap ErrCorruptTrace", off, aerr)
		}
		if !strings.Contains(aerr.Error(), "byte offset") {
			t.Fatalf("offset %d: error %q does not name the byte offset", off, aerr)
		}
		if len(regs) > len(intact) {
			t.Fatalf("offset %d: %d regions from a prefix of a %d-region trace", off, len(regs), len(intact))
		}
		for i, rr := range regs {
			if rr.Err != nil {
				t.Fatalf("offset %d: salvaged region %d carries error %v", off, i, rr.Err)
			}
			if !reflect.DeepEqual(rr, intact[i]) {
				t.Fatalf("offset %d: salvaged region %d differs from the clean analysis", off, i)
			}
		}
	}
}

// TestVTR2BitFlipDegradesPerRegion flips every payload byte of a container
// whose footer stays intact: the indexed analysis must degrade per region —
// regions whose blocks are clean still match the oracle exactly (including
// regions after the damage, which the sequential scanner cannot reach), and
// damaged regions fail with typed corruption naming their index.
func TestVTR2BitFlipDegradesPerRegion(t *testing.T) {
	mod, err := pipeline.Compile("fault.c", testprog.Fault)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := pipeline.RecordContainer(mod, &buf, trace.ContainerOptions{BlockBytes: 256, Codec: "flate"}); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	c := openContainer(t, data)
	intact, err := pipeline.AnalyzeLoopRegionsOpened(context.Background(), indexed(c), mod, testprog.FaultInnerLine, ddg.Options{}, core.Options{}, 2)
	if err != nil {
		t.Fatal(err)
	}

	// Flips stop short of the footer: footer damage is open-time rejection,
	// covered by the truncation sweep and FuzzRegionIndex.
	blockEnd := len(data) - 12 - 8 // generous bound: trailer + some footer
	anyFailed := false
	for off := 5; off < blockEnd; off++ {
		corrupt := append([]byte{}, data...)
		corrupt[off] ^= 0x40
		co, err := trace.OpenContainer(bytes.NewReader(corrupt), int64(len(corrupt)), nil)
		if err != nil {
			if !errors.Is(err, trace.ErrCorruptTrace) {
				t.Fatalf("offset %d: open error %v is not typed corruption", off, err)
			}
			continue
		}
		regs, aerr := pipeline.AnalyzeLoopRegionsOpened(context.Background(), indexed(co), mod, testprog.FaultInnerLine, ddg.Options{}, core.Options{}, 2)
		if len(regs) != len(intact) {
			t.Fatalf("offset %d: %d region slots, want %d", off, len(regs), len(intact))
		}
		failed := 0
		for i, rr := range regs {
			if rr.Err == nil {
				if !reflect.DeepEqual(rr, intact[i]) {
					t.Fatalf("offset %d: clean region %d differs from the intact analysis", off, i)
				}
				continue
			}
			failed++
			anyFailed = true
			if !errors.Is(rr.Err, trace.ErrCorruptTrace) {
				t.Fatalf("offset %d region %d: error %v does not wrap ErrCorruptTrace", off, i, rr.Err)
			}
			if want := fmt.Sprintf("pipeline: region %d:", i); !strings.HasPrefix(rr.Err.Error(), want) {
				t.Fatalf("offset %d region %d: error %q does not name its region", off, i, rr.Err)
			}
		}
		if failed > 0 && (aerr == nil || !errors.Is(aerr, trace.ErrCorruptTrace)) {
			t.Fatalf("offset %d: %d regions failed but summary error is %v", off, failed, aerr)
		}
		if failed == 0 && aerr != nil {
			t.Fatalf("offset %d: no region failed but summary error is %v", off, aerr)
		}
	}
	if !anyFailed {
		t.Fatal("bit-flip sweep never damaged a region: the sweep is vacuous")
	}
}

// TestVTR2ReaderFaults drives the container paths through genuine I/O
// failures: the injected sentinel must pass through errors.Is-able and must
// not be misclassified as trace corruption — on the random-access indexed
// path and the streaming salvage path alike.
func TestVTR2ReaderFaults(t *testing.T) {
	mod, err := pipeline.Compile("fault.c", testprog.Fault)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := pipeline.RecordContainer(mod, &buf, trace.ContainerOptions{BlockBytes: 256, Codec: "flate"}); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	sentinel := fmt.Errorf("disk on fire")

	// Indexed path: a bad-sector window in the middle of the blocks. The
	// footer at the tail still opens; regions whose blocks touch the window
	// fail with the sentinel.
	ra := &faultio.ErrReaderAt{R: bytes.NewReader(data), FailAt: int64(len(data)) / 3, Len: 64, Err: sentinel}
	c, err := trace.OpenContainer(ra, int64(len(data)), nil)
	if err != nil {
		t.Fatalf("footer read hit the mid-file fault: %v", err)
	}
	_, aerr := pipeline.AnalyzeLoopRegionsOpened(context.Background(), indexed(c), mod, testprog.FaultInnerLine, ddg.Options{}, core.Options{}, 2)
	if !errors.Is(aerr, sentinel) {
		t.Fatalf("indexed analysis error %v does not wrap the injected fault", aerr)
	}
	if errors.Is(aerr, trace.ErrCorruptTrace) {
		t.Fatalf("reader I/O failure misclassified as corruption: %v", aerr)
	}

	// Streaming salvage path over a failing sequential reader.
	src := trace.NewBlockSource(&faultio.ErrReader{R: bytes.NewReader(data), FailAt: int64(len(data)) / 2, Err: sentinel}, nil)
	_, serr := pipeline.AnalyzeLoopRegionsStreamCtx(context.Background(), mod, src, testprog.FaultInnerLine, ddg.Options{}, core.Options{})
	if !errors.Is(serr, sentinel) {
		t.Fatalf("salvage analysis error %v does not wrap the injected fault", serr)
	}
	if errors.Is(serr, trace.ErrCorruptTrace) {
		t.Fatalf("salvage I/O failure misclassified as corruption: %v", serr)
	}

	// Short reads (one byte per call) must not change the analysis.
	want, err := pipeline.AnalyzeLoopRegionsStreamCtx(context.Background(), mod,
		trace.NewBlockSource(bytes.NewReader(data), nil), testprog.FaultInnerLine, ddg.Options{}, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := pipeline.AnalyzeLoopRegionsStreamCtx(context.Background(), mod,
		trace.NewBlockSource(&faultio.ShortReader{R: bytes.NewReader(data)}, nil), testprog.FaultInnerLine, ddg.Options{}, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("short reads changed the container analysis result")
	}
}

// TestVTR2RoundTripReencode: decoding a VTR1 stream and re-encoding it as a
// container yields an index whose per-loop region event counts match the
// in-memory Trace.Regions view — the migration-path property behind
// `vectrace record -format vtr2`.
func TestVTR2RoundTripReencode(t *testing.T) {
	for seed := int64(400); seed < 403; seed++ {
		src := testprog.Random(seed)
		mod, _, tr, err := testprog.CompileAndTrace(fmt.Sprintf("re%d.c", seed), src)
		if err != nil {
			t.Fatal(err)
		}
		for _, opts := range []trace.ContainerOptions{
			{BlockBytes: 1 << 10, Codec: "none"},
			{BlockBytes: 1 << 10, Codec: "flate"},
			{BlockBytes: 64 << 10, Codec: "flate"},
		} {
			var buf bytes.Buffer
			if err := trace.EncodeContainer(&buf, mod, tr.Events, opts); err != nil {
				t.Fatal(err)
			}
			c := openContainer(t, buf.Bytes())
			if c.NumEvents() != len(tr.Events) {
				t.Fatalf("seed %d: container %d events, trace %d", seed, c.NumEvents(), len(tr.Events))
			}
			all, err := c.Cursor().EventRange(nil, 0, c.NumEvents())
			if err != nil {
				t.Fatal(err)
			}
			for i := range all {
				if all[i] != tr.Events[i] {
					t.Fatalf("seed %d: event %d mismatch after re-encode", seed, i)
				}
			}
			for _, lm := range mod.Loops {
				want := tr.Regions(lm.ID)
				got := c.RegionsOf(lm.ID)
				if len(got) != len(want) {
					t.Fatalf("seed %d loop %d: index %d regions, trace %d", seed, lm.ID, len(got), len(want))
				}
				for k := range got {
					if got[k].Events() != want[k].End-want[k].Start {
						t.Fatalf("seed %d loop %d region %d: index %d events, trace %d",
							seed, lm.ID, k, got[k].Events(), want[k].End-want[k].Start)
					}
				}
			}
		}
	}
}

package trace_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
	"testing"

	"github.com/example/vectrace/internal/ir"
	"github.com/example/vectrace/internal/obs"
	"github.com/example/vectrace/internal/pipeline"
	"github.com/example/vectrace/internal/trace"
)

// TestAddressZeroDistinctFromNoAddr is the regression test for the encoder
// conflating "no address" with byte address 0: a doctored trace accessing
// address 0 must survive a round trip with the access intact, and events
// without an address must come back as NoAddr, not 0.
func TestAddressZeroDistinctFromNoAddr(t *testing.T) {
	events := []trace.Event{
		{ID: 1, Addr: 0},            // genuine access to byte address 0
		{ID: 2, Addr: trace.NoAddr}, // no memory access
		{ID: 3, Addr: 0x100},
		{ID: 4, Addr: 0}, // back to address 0: negative delta
		{ID: 5, Addr: trace.NoAddr},
	}
	var buf bytes.Buffer
	if err := trace.Encode(&buf, events); err != nil {
		t.Fatal(err)
	}
	got, err := trace.Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(events) {
		t.Fatalf("decoded %d events, want %d", len(got), len(events))
	}
	for i := range events {
		if got[i] != events[i] {
			t.Fatalf("event %d = %+v, want %+v", i, got[i], events[i])
		}
	}
	if !got[0].HasAddr() || got[1].HasAddr() {
		t.Fatal("HasAddr conflates address 0 with no address")
	}
}

// TestEncoderDecoderStreaming drives the incremental API directly: events
// written one at a time must be readable one at a time, with io.EOF
// terminating the stream.
func TestEncoderDecoderStreaming(t *testing.T) {
	events := []trace.Event{
		{ID: 9, Addr: trace.NoAddr},
		{ID: 0, Addr: 0x40},
		{ID: 0, Addr: 0x48},
		{ID: 12, Addr: trace.NoAddr},
	}
	var buf bytes.Buffer
	enc := trace.NewEncoder(&buf)
	for _, ev := range events {
		if err := enc.Write(ev); err != nil {
			t.Fatal(err)
		}
	}
	if err := enc.Close(); err != nil {
		t.Fatal(err)
	}
	if err := enc.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if err := enc.Write(trace.Event{ID: 1, Addr: trace.NoAddr}); err == nil {
		t.Fatal("Write after Close succeeded")
	}

	dec := trace.NewDecoder(bytes.NewReader(buf.Bytes()))
	for i, want := range events {
		got, err := dec.Next()
		if err != nil {
			t.Fatalf("event %d: %v", i, err)
		}
		if got != want {
			t.Fatalf("event %d = %+v, want %+v", i, got, want)
		}
	}
	for range 2 {
		if _, err := dec.Next(); err != io.EOF {
			t.Fatalf("after sentinel: %v, want io.EOF", err)
		}
	}
}

func TestEncoderEmptyStream(t *testing.T) {
	var buf bytes.Buffer
	enc := trace.NewEncoder(&buf)
	if err := enc.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := trace.Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("decoded %d events from empty stream", len(got))
	}
}

func TestEncoderRejectsBadID(t *testing.T) {
	enc := trace.NewEncoder(io.Discard)
	if err := enc.Write(trace.Event{ID: -1, Addr: trace.NoAddr}); err == nil {
		t.Fatal("negative ID accepted")
	}
}

// vtr prepends the magic to raw event bytes.
func vtr(body ...byte) []byte {
	return append([]byte("VTR1"), body...)
}

func TestDecoderStrictness(t *testing.T) {
	cases := []struct {
		name string
		data []byte
		want string
	}{
		// Head 4 (id 1, no addr) encoded non-minimally as two bytes.
		{"non-minimal varint", vtr(0x84, 0x00, 0x00), "non-minimal"},
		// Valid empty stream followed by a stray byte.
		{"trailing data", vtr(0x00, 0x7f), "trailing data"},
		// id+1 == 0: the reserved half of the sentinel space.
		{"header one", vtr(0x01, 0x00, 0x00), "out of range"},
		// Address delta that lands on the reserved NoAddr sentinel.
		{"reserved address", vtr(0x03, 0x01, 0x00), "reserved"},
		// uvarint wider than 64 bits.
		{"varint overflow", vtr(0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f), "overflow"},
		{"bad magic", []byte("NOPE...."), "bad magic"},
		{"truncated magic", []byte("VT"), "magic"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := trace.Decode(bytes.NewReader(tc.data))
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Decode(%x) error = %v, want substring %q", tc.data, err, tc.want)
			}
		})
	}
}

func TestDecoderRejectsHugeID(t *testing.T) {
	var buf bytes.Buffer
	buf.WriteString("VTR1")
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(tmp[:], uint64(1)<<33) // id+1 = 2^32
	buf.Write(tmp[:n])
	buf.WriteByte(0)
	if _, err := trace.Decode(&buf); err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Fatalf("want ID-out-of-range error, got %v", err)
	}
}

func TestDecoderReservedAddrError(t *testing.T) {
	_, err := trace.Decode(bytes.NewReader(vtr(0x03, 0x01, 0x00)))
	if !errors.Is(err, trace.ErrReservedAddr) {
		t.Fatalf("want ErrReservedAddr, got %v", err)
	}
}

// checkLoopRegionStreamParity asserts the streaming region lookup yields
// exactly the regions Trace.Regions finds, with identical event content,
// both from an in-memory source and through a full encode/decode cycle,
// and the out-of-range error one index past the last region.
func checkLoopRegionStreamParity(t *testing.T, tr *trace.Trace, lm ir.LoopMeta) {
	t.Helper()
	want := tr.Regions(lm.ID)

	var buf bytes.Buffer
	if err := trace.Encode(&buf, tr.Events); err != nil {
		t.Fatal(err)
	}
	sources := map[string]func() trace.EventSource{
		"slice":   func() trace.EventSource { return &trace.SliceSource{Events: tr.Events} },
		"decoder": func() trace.EventSource { return trace.NewDecoder(bytes.NewReader(buf.Bytes())) },
	}
	for name, src := range sources {
		for i, r := range want {
			sub, err := pipeline.LoopRegionStream(context.Background(), tr.Module, src(), lm.Line, i)
			if err != nil {
				t.Fatalf("%s: region %d: %v", name, i, err)
			}
			ref := tr.RegionEvents(r)
			if len(sub.Events) != len(ref) {
				t.Fatalf("%s: region %d has %d events, want %d", name, i, len(sub.Events), len(ref))
			}
			for j := range ref {
				if sub.Events[j] != ref[j] {
					t.Fatalf("%s: region %d event %d = %+v, want %+v", name, i, j, sub.Events[j], ref[j])
				}
			}
			if sub.Module != tr.Module {
				t.Fatalf("%s: region %d does not share the module", name, i)
			}
		}
		_, err := pipeline.LoopRegionStream(context.Background(), tr.Module, src(), lm.Line, len(want))
		wantErr := fmt.Sprintf("pipeline: loop on line %d has %d dynamic regions, want index %d", lm.Line, len(want), len(want))
		if err == nil || err.Error() != wantErr {
			t.Fatalf("%s: out-of-range lookup: got %v, want %q", name, err, wantErr)
		}
	}
}

// TestLoopRegionStreamParity covers the region-boundary cases the feed
// under LoopRegionStream must get right: nesting, loops in callees, early
// returns that skip the loop.end marker, and loops that never iterate.
func TestLoopRegionStreamParity(t *testing.T) {
	programs := map[string]string{
		"simple": `
double g;
void main() {
  int i;
  for (i = 0; i < 3; i++) { g = g + 1.0; }
}
`,
		"nested": `
double g;
void main() {
  int i; int j;
  for (i = 0; i < 3; i++) {
    for (j = 0; j < 2; j++) { g = g + 1.0; }
  }
}
`,
		"callee": `
double g;
void work() {
  int j;
  for (j = 0; j < 2; j++) { g = g + 1.0; }
}
void main() {
  int i;
  for (i = 0; i < 3; i++) { work(); }
}
`,
		"early-return": `
double g;
int find(int x) {
  int i;
  for (i = 0; i < 10; i++) {
    if (i == x) { return i; }
    g = g + 1.0;
  }
  return 0 - 1;
}
void main() { printi(find(4)); }
`,
		"zero-iteration": `
double g;
void main() {
  int i;
  for (i = 0; i < 0; i++) { g = g + 1.0; }
}
`,
	}
	for name, src := range programs {
		t.Run(name, func(t *testing.T) {
			tr := traceFor(t, src)
			for _, lm := range tr.Module.Loops {
				checkLoopRegionStreamParity(t, tr, lm)
			}
		})
	}
}

// TestLoopRegionStreamBoundedRetention: the events LoopRegionStream holds
// at once track the size of one region, not the number of regions — even
// for the last region, which makes it hold and release every earlier one.
func TestLoopRegionStreamBoundedRetention(t *testing.T) {
	program := func(reps int) string {
		return fmt.Sprintf(`
double a[16];
void main() {
  int t; int i;
  for (t = 0; t < %d; t++) {
    for (i = 1; i < 15; i++) { a[i] = a[i-1] * 0.5 + 1.0; }
  }
}
`, reps)
	}
	peak := func(reps int) (retained int64, total int) {
		tr := traceFor(t, program(reps))
		rec := obs.New()
		sub, err := pipeline.LoopRegionStream(obs.WithRecorder(context.Background(), rec), tr.Module,
			&trace.SliceSource{Events: tr.Events}, 6, reps-1)
		if err != nil {
			t.Fatal(err)
		}
		if retained = rec.Get(obs.ScanPeakRetainedEvents); retained < int64(sub.Len()) {
			t.Fatalf("peak retention %d below the returned region's %d events", retained, sub.Len())
		}
		return retained, tr.Len()
	}
	shortPeak, shortLen := peak(2)
	longPeak, longLen := peak(64)
	if longLen <= 8*shortLen {
		t.Fatalf("test setup: long trace (%d events) not much longer than short (%d)", longLen, shortLen)
	}
	if longPeak != shortPeak {
		t.Fatalf("peak retention grew with trace length: %d events (2 regions) vs %d events (64 regions)",
			shortPeak, longPeak)
	}
}

// TestRegionScannerRejectsForeignID: scanning a trace for regions fails,
// rather than reaching EOF, when an event mid-trace names an instruction
// outside the module.
func TestRegionScannerRejectsForeignID(t *testing.T) {
	tr := traceFor(t, `
double g;
void main() {
  int i;
  for (i = 0; i < 3; i++) { g = g + 1.0; }
}
`)
	bad := append([]trace.Event{}, tr.Events...)
	bad[len(bad)/2].ID = int32(tr.Module.NumInstrs) + 7
	_, _, err := feedAll(context.Background(), tr, tr.Module.Loops[0].ID, &trace.SliceSource{Events: bad})
	if err == nil {
		t.Fatal("scan accepted out-of-module instruction ID")
	}
	if !strings.Contains(err.Error(), "not in module") {
		t.Fatalf("unexpected error: %v", err)
	}
}

// TestRecordMatchesTrace: streaming a program to a VTR1 file and decoding
// it yields exactly the events live instrumentation produces.
func TestRecordMatchesTrace(t *testing.T) {
	src := `
double a[32];
double s;
void main() {
  int i;
  for (i = 0; i < 32; i++) { a[i] = 0.5 * i; }
  for (i = 1; i < 32; i++) { s = s + a[i] * a[i-1]; }
  print(s);
}
`
	mod, _, tr, err := pipeline.CompileAndTrace("t.c", src)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	res, err := pipeline.Record(mod, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if int64(tr.Len()) != res.Steps {
		t.Fatalf("recorded %d steps, live trace has %d events", res.Steps, tr.Len())
	}
	got, err := trace.Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != tr.Len() {
		t.Fatalf("decoded %d events, want %d", len(got), tr.Len())
	}
	for i := range got {
		if got[i] != tr.Events[i] {
			t.Fatalf("event %d = %+v, want %+v", i, got[i], tr.Events[i])
		}
	}
}

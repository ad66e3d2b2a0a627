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
	"github.com/example/vectrace/internal/pipeline"
	"github.com/example/vectrace/internal/testprog"
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

// regionCapture is a region sink set that keeps the events of the
// selected region and tracks how many events its open sinks hold at once.
type regionCapture struct {
	want       int
	live, peak int
	got        []trace.Event
}

type captureSink struct {
	c      *regionCapture
	events []trace.Event
}

func (s *captureSink) Event(ev trace.Event) {
	s.events = append(s.events, ev)
	s.c.live++
	s.c.peak = max(s.c.peak, s.c.live)
}

func (s *captureSink) Close(index int) {
	if index == s.c.want {
		s.c.got = s.events
	}
	s.Abort()
}

func (s *captureSink) Abort() {
	s.c.live -= len(s.events)
	s.events = nil
}

// loopRegionStream feeds src through a region feed selecting region idx
// of the loop and returns that region's events (nil when the loop has
// fewer regions), the number of regions dispatched, and the peak number
// of events the feed's open sinks held at once.
func loopRegionStream(t *testing.T, mod *ir.Module, src trace.EventSource, loopID, idx int) ([]trace.Event, int, int) {
	t.Helper()
	c := &regionCapture{want: idx}
	n, err := trace.FeedRegions(context.Background(), mod, loopID, idx, src, func() trace.RegionSink { return &captureSink{c: c} })
	if err != nil {
		t.Fatal(err)
	}
	return c.got, n, c.peak
}

// checkLoopRegionStreamParity asserts the region feed's single-region
// selection yields exactly the regions Trace.Regions finds, with identical
// event content, both from an in-memory source and through a full
// encode/decode cycle, and nothing one index past the last region.
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
			sub, _, _ := loopRegionStream(t, tr.Module, src(), lm.ID, i)
			ref := tr.RegionEvents(r)
			if len(sub) != len(ref) {
				t.Fatalf("%s: region %d has %d events, want %d", name, i, len(sub), len(ref))
			}
			for j := range ref {
				if sub[j] != ref[j] {
					t.Fatalf("%s: region %d event %d = %+v, want %+v", name, i, j, sub[j], ref[j])
				}
			}
		}
		sub, n, _ := loopRegionStream(t, tr.Module, src(), lm.ID, len(want))
		if sub != nil || n != len(want) {
			t.Fatalf("%s: out-of-range selection: got %d events after %d regions, want none after %d", name, len(sub), n, len(want))
		}
	}
}

// TestLoopRegionStreamParity covers the region-boundary cases a feed
// selecting one region must get right: nesting, loops in callees, early
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

// TestLoopRegionStreamBoundedRetention: the events a feed selecting one
// region makes its sinks hold at once track the size of one region, not
// the number of regions — even for the last region, which makes it hold
// and release every earlier one.
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
	peak := func(reps int) (retained int, total int) {
		tr := traceFor(t, program(reps))
		sub, _, retained := loopRegionStream(t, tr.Module, &trace.SliceSource{Events: tr.Events},
			tr.Module.LoopByLine(6).ID, reps-1)
		if retained < len(sub) {
			t.Fatalf("peak retention %d below the returned region's %d events", retained, len(sub))
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
	mod, _, tr, err := testprog.CompileAndTrace("t.c", src)
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

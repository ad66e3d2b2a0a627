package trace_test

import (
	"bytes"
	"context"
	"errors"
	"io"
	"strings"
	"testing"

	"github.com/example/vectrace/internal/pipeline"
	"github.com/example/vectrace/internal/trace"
)

// fuzzSeed builds a VTR1 byte stream from events, for seeding the corpus.
func fuzzSeed(events []trace.Event) []byte {
	var buf bytes.Buffer
	if err := trace.Encode(&buf, events); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

// FuzzDecode feeds arbitrary bytes to the VTR1 decoder. The decoder must
// never panic or hang, and — because decoding is strict (minimal varints,
// no trailing data, reserved values rejected) — any input it accepts must
// re-encode to exactly the same bytes (round-trip property).
func FuzzDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("VTR1"))
	f.Add([]byte("VTR1\x00"))
	f.Add(fuzzSeed(nil))
	f.Add(fuzzSeed([]trace.Event{
		{ID: 0, Addr: trace.NoAddr},
		{ID: 1, Addr: 0},
		{ID: 2, Addr: 4096},
		{ID: 3, Addr: 4088},
		{ID: 2, Addr: trace.NoAddr},
	}))
	f.Add(fuzzSeed([]trace.Event{
		{ID: 1<<30 - 1, Addr: -9000},
		{ID: 7, Addr: 1 << 40},
	}))
	// Deliberately malformed seeds: bad magic, truncated event, non-minimal
	// varint, reserved address, trailing garbage.
	f.Add([]byte("VTR0\x00"))
	f.Add([]byte("VTR1\x84"))
	f.Add([]byte("VTR1\x84\x00\x00"))
	f.Add([]byte("VTR1\x03\x01\x00"))
	f.Add([]byte("VTR1\x00\x7f"))

	f.Fuzz(func(t *testing.T, data []byte) {
		events, err := trace.DecodeBytes(data)
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := trace.Encode(&buf, events); err != nil {
			t.Fatalf("decoded events failed to re-encode: %v", err)
		}
		if !bytes.Equal(buf.Bytes(), data) {
			t.Fatalf("round trip changed bytes:\n in: %x\nout: %x", data, buf.Bytes())
		}
		// The streaming decoder must agree with the one-shot path.
		dec := trace.NewDecoder(bytes.NewReader(data))
		for i := range events {
			ev, err := dec.Next()
			if err != nil {
				t.Fatalf("streaming decode failed at event %d: %v", i, err)
			}
			if ev != events[i] {
				t.Fatalf("event %d: streaming %+v, one-shot %+v", i, ev, events[i])
			}
		}
		if _, err := dec.Next(); err != io.EOF {
			t.Fatalf("streaming decoder: want io.EOF after %d events, got %v", len(events), err)
		}
	})
}

// fuzzFeedSrc is the program behind FuzzRegionFeed's seed corpus: an
// inner loop on line 7 that executes three dynamic regions.
const fuzzFeedSrc = `
double a[16];
double s;
void main() {
  int t; int i;
  for (t = 0; t < 3; t++) {
    for (i = 1; i < 16; i++) {  /* inner loop: line 7 */
      a[i] = a[i-1] * 0.5 + 0.25 * i;
    }
  }
  for (i = 0; i < 16; i++) { s = s + a[i]; }
  print(s);
}
`

// FuzzRegionFeed drives arbitrary bytes through the streaming decoder and
// the region feed. The feed must never panic or hang: every input either
// scans to clean io.EOF — in which case every region must agree with the
// in-memory Trace.Regions path — or fails with a typed error wrapping
// ErrCorruptTrace (a bytes.Reader cannot produce genuine I/O errors, so
// corruption is the only legitimate failure here).
func FuzzRegionFeed(f *testing.F) {
	mod, err := pipeline.Compile("fuzz.c", fuzzFeedSrc)
	if err != nil {
		f.Fatal(err)
	}
	loop := mod.LoopByLine(7)
	if loop == nil {
		f.Fatal("fuzz program has no loop on line 7")
	}
	var buf bytes.Buffer
	if _, err := pipeline.Record(mod, &buf); err != nil {
		f.Fatal(err)
	}
	recorded := buf.Bytes()

	// Seed with the clean recording, truncations at structural boundaries,
	// single-byte corruptions, and degenerate streams.
	f.Add(append([]byte{}, recorded...))
	for _, cut := range []int{0, 1, 4, 5, len(recorded) / 3, len(recorded) / 2, len(recorded) - 1} {
		if cut >= 0 && cut <= len(recorded) {
			f.Add(append([]byte{}, recorded[:cut]...))
		}
	}
	for _, off := range []int{5, len(recorded) / 2, len(recorded) - 2} {
		corrupt := append([]byte{}, recorded...)
		corrupt[off] ^= 0x55
		f.Add(corrupt)
	}
	f.Add([]byte{})
	f.Add([]byte("VTR1"))
	f.Add(fuzzSeed(nil))
	f.Add(fuzzSeed([]trace.Event{{ID: 1 << 29, Addr: trace.NoAddr}})) // out-of-module ID

	f.Fuzz(func(t *testing.T, data []byte) {
		// Sinks keep an event count and digest, not the events: nested
		// loop.begin markers make each event reach every open region.
		var sinks []*digestSink
		n, err := trace.FeedRegions(context.Background(), mod, loop.ID, -1, trace.NewDecoder(bytes.NewReader(data)),
			func() trace.RegionSink {
				s := &digestSink{index: -1}
				sinks = append(sinks, s)
				return s
			})
		if err != nil {
			if !errors.Is(err, trace.ErrCorruptTrace) {
				t.Fatalf("feed error %v does not wrap ErrCorruptTrace", err)
			}
			return
		}
		// Clean EOF means every event decoded and was module-valid, so the
		// in-memory path must agree — with one allowed divergence: the
		// streaming decoder stops at the end-of-stream sentinel, while the
		// one-shot decoder additionally rejects trailing bytes after it.
		events, err := trace.DecodeBytes(data)
		if err != nil {
			if strings.Contains(err.Error(), "trailing data") {
				return
			}
			t.Fatalf("feed accepted a stream the one-shot decoder rejects: %v", err)
		}
		tr := &trace.Trace{Module: mod, Events: events}
		want := tr.Regions(loop.ID)
		if n != len(want) || len(sinks) != len(want) {
			t.Fatalf("feed closed %d regions over %d sinks, in-memory path found %d", n, len(sinks), len(want))
		}
		for _, s := range sinks {
			var ref digestSink
			for _, ev := range tr.RegionEvents(want[s.index]) {
				ref.Event(ev)
			}
			if s.events != ref.events || s.sum != ref.sum {
				t.Fatalf("region %d: feed saw %d events (digest %x), in-memory path %d (%x)",
					s.index, s.events, s.sum, ref.events, ref.sum)
			}
		}
	})
}

// digestSink folds one region's events into a count and an order-sensitive
// digest.
type digestSink struct {
	index  int
	events int
	sum    uint64
}

func (s *digestSink) Event(ev trace.Event) {
	s.events++
	s.sum = s.sum*1099511628211 ^ uint64(ev.ID)<<32 ^ uint64(ev.Addr)
}
func (s *digestSink) Close(index int) { s.index = index }
func (s *digestSink) Abort()          {}

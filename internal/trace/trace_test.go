package trace_test

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"github.com/example/vectrace/internal/ir"
	"github.com/example/vectrace/internal/testprog"
	"github.com/example/vectrace/internal/trace"
)

func TestEncodeDecodeRoundTrip(t *testing.T) {
	events := []trace.Event{
		{ID: 0},
		{ID: 1, Addr: 0x10000},
		{ID: 2, Addr: 0x10008},
		{ID: 1, Addr: 0x10010},
		{ID: 5},
		{ID: 3, Addr: 0x20000},
		{ID: 3, Addr: 0x10000}, // negative delta
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
}

func TestEncodeDecodeEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := trace.Encode(&buf, nil); err != nil {
		t.Fatal(err)
	}
	got, err := trace.Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("decoded %d events from empty trace", len(got))
	}
}

func TestDecodeBadMagic(t *testing.T) {
	_, err := trace.Decode(strings.NewReader("NOPE...."))
	if err == nil || !strings.Contains(err.Error(), "bad magic") {
		t.Fatalf("want bad-magic error, got %v", err)
	}
}

func TestDecodeTruncated(t *testing.T) {
	events := []trace.Event{{ID: 1, Addr: 0x10000}, {ID: 2, Addr: 0x10008}}
	var buf bytes.Buffer
	if err := trace.Encode(&buf, events); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for cut := 1; cut < len(full)-1; cut++ {
		if _, err := trace.Decode(bytes.NewReader(full[:cut])); err == nil {
			// A short prefix can only be valid if it happens to end on the
			// sentinel — it cannot, since the sentinel is the final byte.
			t.Fatalf("truncation at %d not detected", cut)
		}
	}
}

// TestRoundTripProperty: invariant 5 from DESIGN.md — encode→decode is the
// identity on arbitrary event streams (with valid IDs and addresses that
// are either 0 or in the plausible memory range).
func TestRoundTripProperty(t *testing.T) {
	check := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		events := make([]trace.Event, int(n))
		for i := range events {
			events[i].ID = rng.Int31n(1 << 20)
			if rng.Intn(2) == 0 {
				events[i].Addr = 0x10000 + rng.Int63n(1<<32)
			}
		}
		var buf bytes.Buffer
		if err := trace.Encode(&buf, events); err != nil {
			return false
		}
		got, err := trace.Decode(&buf)
		if err != nil {
			return false
		}
		if len(got) != len(events) {
			return false
		}
		for i := range events {
			if got[i] != events[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestDecodeGarbageNeverPanics feeds random byte soup to the decoder; it
// must return an error or a valid slice, never panic.
func TestDecodeGarbageNeverPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 500; i++ {
		n := rng.Intn(64)
		buf := make([]byte, 4+n)
		copy(buf, "VTR1")
		rng.Read(buf[4:])
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("decoder panicked on input %x: %v", buf, r)
				}
			}()
			_, _ = trace.Decode(bytes.NewReader(buf))
		}()
	}
}

func TestCompactness(t *testing.T) {
	// Strided access must encode in very few bytes per event.
	events := make([]trace.Event, 10000)
	for i := range events {
		events[i] = trace.Event{ID: 7, Addr: 0x10000 + int64(i)*8}
	}
	var buf bytes.Buffer
	if err := trace.Encode(&buf, events); err != nil {
		t.Fatal(err)
	}
	perEvent := float64(buf.Len()) / float64(len(events))
	if perEvent > 4 {
		t.Errorf("strided trace uses %.1f bytes/event, want <= 4", perEvent)
	}
}

// traceFor builds a full-program trace for a source string.
func traceFor(t *testing.T, src string) *trace.Trace {
	t.Helper()
	_, _, tr, err := testprog.CompileAndTrace("t.c", src)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestRegionsSimpleLoop(t *testing.T) {
	tr := traceFor(t, `
double g;
void main() {
  int i;
  for (i = 0; i < 3; i++) { g = g + 1.0; }
}
`)
	regions := tr.Regions(0)
	if len(regions) != 1 {
		t.Fatalf("regions = %d, want 1", len(regions))
	}
	r := regions[0]
	if r.Start <= 0 || r.End <= r.Start {
		t.Fatalf("bad region bounds: %+v", r)
	}
	// The region must exclude the loop.begin/loop.end markers themselves
	// but contain the loop's body instructions.
	for _, ev := range tr.RegionEvents(r) {
		in := tr.Module.InstrAt(ev.ID)
		if in.Op == ir.OpLoopBegin && in.Loop == 0 {
			t.Fatal("region contains its own loop.begin")
		}
	}
}

func TestRegionsNested(t *testing.T) {
	tr := traceFor(t, `
double g;
void main() {
  int i; int j;
  for (i = 0; i < 3; i++) {
    for (j = 0; j < 2; j++) { g = g + 1.0; }
  }
}
`)
	outer := tr.Regions(0)
	inner := tr.Regions(1)
	if len(outer) != 1 {
		t.Fatalf("outer regions = %d, want 1", len(outer))
	}
	if len(inner) != 3 {
		t.Fatalf("inner regions = %d, want 3 (one per outer iteration)", len(inner))
	}
	// Inner regions nest within the outer region.
	for _, r := range inner {
		if r.Start < outer[0].Start || r.End > outer[0].End {
			t.Fatalf("inner region %+v escapes outer %+v", r, outer[0])
		}
	}
	// Inner regions are disjoint and ordered.
	for i := 1; i < len(inner); i++ {
		if inner[i].Start < inner[i-1].End {
			t.Fatal("inner regions overlap")
		}
	}
}

func TestRegionsZeroIterationLoop(t *testing.T) {
	tr := traceFor(t, `
double g;
void main() {
  int i;
  for (i = 0; i < 0; i++) { g = g + 1.0; }
}
`)
	regions := tr.Regions(0)
	if len(regions) != 1 {
		t.Fatalf("regions = %d, want 1 (entered and immediately exited)", len(regions))
	}
}

func TestRegionsLoopInCallee(t *testing.T) {
	tr := traceFor(t, `
double g;
void work() {
  int j;
  for (j = 0; j < 2; j++) { g = g + 1.0; }
}
void main() {
  int i;
  for (i = 0; i < 3; i++) { work(); }
}
`)
	// work's loop is parsed first (ID 0), main's second (ID 1).
	workRegions := tr.Regions(0)
	mainRegions := tr.Regions(1)
	if len(workRegions) != 3 {
		t.Fatalf("work loop regions = %d, want 3", len(workRegions))
	}
	if len(mainRegions) != 1 {
		t.Fatalf("main loop regions = %d, want 1", len(mainRegions))
	}
}

func TestRegionsEarlyReturn(t *testing.T) {
	tr := traceFor(t, `
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
`)
	regions := tr.Regions(0)
	if len(regions) != 1 {
		t.Fatalf("regions = %d, want 1 (closed by the early return)", len(regions))
	}
	if regions[0].End <= regions[0].Start {
		t.Fatal("early-returned region is empty")
	}
}

func TestSliceSharesModule(t *testing.T) {
	tr := traceFor(t, `
double g;
void main() {
  int i;
  for (i = 0; i < 3; i++) { g = g + 1.0; }
}
`)
	r := tr.Regions(0)[0]
	sl := tr.Slice(r)
	if sl.Module != tr.Module {
		t.Error("slice should share the module")
	}
	if sl.Len() != r.End-r.Start {
		t.Errorf("slice length = %d, want %d", sl.Len(), r.End-r.Start)
	}
}

func TestAppend(t *testing.T) {
	tr := &trace.Trace{}
	tr.Append(3, 0x10000)
	tr.Append(4, 0)
	if tr.Len() != 2 || tr.Events[0].ID != 3 || tr.Events[1].Addr != 0 {
		t.Errorf("append wrong: %+v", tr.Events)
	}
}

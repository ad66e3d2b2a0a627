package trace_test

// Differential tests of the push-based RegionFeed against the in-memory
// Trace.Regions split: same programs, same loops, same regions in the same
// close order with the same events — the feed just never buffers them
// itself.

import (
	"context"
	"errors"
	"io"
	"testing"

	"github.com/example/vectrace/internal/trace"
)

// recSink buffers one region's events — the test double standing in for
// the one-pass kernel.
type recSink struct {
	events  []trace.Event
	index   int
	closed  bool
	aborted bool
}

func (s *recSink) Event(ev trace.Event) { s.events = append(s.events, ev) }
func (s *recSink) Close(index int)      { s.index, s.closed = index, true }
func (s *recSink) Abort()               { s.aborted = true }

// feedAll drives src through FeedRegions, collecting every sink opened.
func feedAll(ctx context.Context, tr *trace.Trace, loopID int, src trace.EventSource) ([]*recSink, int, error) {
	return feedSelect(ctx, tr, loopID, -1, src)
}

// feedSelect is feedAll under a selection of close-order index want.
func feedSelect(ctx context.Context, tr *trace.Trace, loopID, want int, src trace.EventSource) ([]*recSink, int, error) {
	var sinks []*recSink
	n, err := trace.FeedRegions(ctx, tr.Module, loopID, want, src, func() trace.RegionSink {
		s := &recSink{index: -1}
		sinks = append(sinks, s)
		return s
	})
	return sinks, n, err
}

func TestRegionFeedMatchesScanner(t *testing.T) {
	programs := map[string]string{
		"simple": `
double g;
void main() {
  int i;
  for (i = 0; i < 3; i++) { g = g + 1.0; }
}
`,
		"nested-loops": `
double g;
void main() {
  int i; int j;
  for (i = 0; i < 3; i++) {
    for (j = 0; j < 2; j++) { g = g + 1.0; }
  }
}
`,
		"callee-loop": `
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
				want := tr.Regions(lm.ID)
				sinks, n, err := feedAll(context.Background(), tr, lm.ID, &trace.SliceSource{Events: tr.Events})
				if err != nil {
					t.Fatalf("loop %d: FeedRegions: %v", lm.ID, err)
				}
				if n != len(want) || len(sinks) != len(want) {
					t.Fatalf("loop %d: feed dispatched %d regions over %d sinks, Regions found %d",
						lm.ID, n, len(sinks), len(want))
				}
				// Sinks open in loop-entry order; indices are assigned in
				// close order. Check each sink's events against the region
				// that closed with its index.
				for _, s := range sinks {
					if !s.closed || s.aborted {
						t.Fatalf("loop %d: sink not cleanly closed: %+v", lm.ID, s)
					}
					ref := tr.RegionEvents(want[s.index])
					if len(s.events) != len(ref) {
						t.Fatalf("loop %d region %d: %d events, want %d", lm.ID, s.index, len(s.events), len(ref))
					}
					for j := range ref {
						if s.events[j] != ref[j] {
							t.Fatalf("loop %d region %d event %d = %+v, want %+v",
								lm.ID, s.index, j, s.events[j], ref[j])
						}
					}
				}
			}
		})
	}
}

// TestRegionFeedCorruptEvent: an out-of-module event aborts open sinks and
// latches an ErrCorruptTrace-wrapped error naming the region and event.
func TestRegionFeedCorruptEvent(t *testing.T) {
	tr := traceFor(t, `
double g;
void main() {
  int i;
  for (i = 0; i < 3; i++) { g = g + 1.0; }
}
`)
	loopID := tr.Module.Loops[0].ID
	// Truncate mid-region and append a foreign ID while the region is open.
	var begin int = -1
	for i, ev := range tr.Events {
		if tr.Module.InstrAt(ev.ID).Op.String() == "loop.begin" {
			begin = i
			break
		}
	}
	if begin < 0 {
		t.Fatal("no loop.begin in trace")
	}
	bad := append(append([]trace.Event{}, tr.Events[:begin+3]...), trace.Event{ID: int32(tr.Module.NumInstrs) + 7})
	sinks, _, err := feedAll(context.Background(), tr, loopID, &trace.SliceSource{Events: bad})
	if !errors.Is(err, trace.ErrCorruptTrace) {
		t.Fatalf("error %v does not wrap ErrCorruptTrace", err)
	}
	if len(sinks) != 1 || !sinks[0].aborted || sinks[0].closed {
		t.Fatalf("open sink not aborted: %+v", sinks)
	}
	// The error latches.
	f := trace.NewRegionFeed(context.Background(), tr.Module, loopID, -1, func() trace.RegionSink { return &recSink{} })
	if perr := f.Push(trace.Event{ID: -1}); perr == nil {
		t.Fatal("Push of negative ID succeeded")
	} else if again := f.Push(tr.Events[0]); again == nil || again.Error() != perr.Error() {
		t.Fatalf("feed error did not latch: %v then %v", perr, again)
	}
}

// TestRegionFeedCancel: a pre-canceled context fails the first Push, before
// any sink is opened, with the feed's cancellation text.
func TestRegionFeedCancel(t *testing.T) {
	tr := traceFor(t, `
double g;
void main() {
  int i;
  for (i = 0; i < 2; i++) { g = g + 1.0; }
}
`)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	sinks, n, err := feedAll(ctx, tr, tr.Module.Loops[0].ID, &trace.SliceSource{Events: tr.Events})
	if err == nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if n != 0 || len(sinks) != 0 {
		t.Fatalf("canceled feed dispatched %d regions, opened %d sinks", n, len(sinks))
	}
}

// TestRegionFeedSourceError: an upstream source failure (reader error
// mid-stream) aborts open sinks and surfaces through Fail's latched wrap.
func TestRegionFeedSourceError(t *testing.T) {
	tr := traceFor(t, `
double g;
void main() {
  int i;
  for (i = 0; i < 3; i++) { g = g + 1.0; }
}
`)
	loopID := tr.Module.Loops[0].ID
	boom := errors.New("disk on fire")
	src := &failingSource{events: tr.Events, failAt: len(tr.Events) / 2, err: boom}
	sinks, _, err := feedAll(context.Background(), tr, loopID, src)
	if !errors.Is(err, boom) {
		t.Fatalf("want wrapped source error, got %v", err)
	}
	for _, s := range sinks {
		if !s.closed && !s.aborted {
			t.Fatalf("sink neither closed nor aborted after source failure: %+v", s)
		}
	}
}

// failingSource yields events until failAt, then returns err.
type failingSource struct {
	events []trace.Event
	pos    int
	failAt int
	err    error
}

func (s *failingSource) Next() (trace.Event, error) {
	if s.pos >= s.failAt {
		return trace.Event{}, s.err
	}
	if s.pos >= len(s.events) {
		return trace.Event{}, io.EOF
	}
	ev := s.events[s.pos]
	s.pos++
	return ev, nil
}

// TestRegionFeedSelection pins the selection rule on a loop that recurses
// into itself, where close order differs from open order: regions opening
// before region K closes get sinks, exactly one sink closes as K with
// Trace.Regions' events, the rest close with other indices or are aborted
// once K closes, and the pull driver stops reading there.
func TestRegionFeedSelection(t *testing.T) {
	tr := traceFor(t, `
double a[64];
void walk(int d) {
  int i;
  for (i = 0; i < 3; i++) {
    a[d * 8 + i] = a[d * 8 + i] * 0.5 + 1.0;
    if (i == 1) {
      if (d < 3) { walk(d + 1); }
    }
  }
}
void main() { walk(0); walk(2); }
`)
	lm := tr.Module.LoopByLine(5)
	if lm == nil {
		t.Fatal("no loop on line 5")
	}
	want := tr.Regions(lm.ID)
	if len(want) != 6 {
		t.Fatalf("test setup: %d regions, want 6", len(want))
	}
	for k := 0; k <= len(want); k++ {
		src := &trace.SliceSource{Events: tr.Events}
		counted := &countingSource{src: src}
		sinks, n, err := feedSelect(context.Background(), tr, lm.ID, k, counted)
		if err != nil {
			t.Fatalf("K=%d: %v", k, err)
		}
		if k == len(want) {
			if n != len(want) || counted.n != len(tr.Events)+1 {
				t.Fatalf("K past the end: %d regions after %d reads, want %d after the whole trace", n, counted.n, len(want))
			}
			continue
		}
		selected := 0
		for _, s := range sinks {
			switch {
			case s.closed && s.index == k:
				selected++
				if ref := tr.RegionEvents(want[k]); len(s.events) != len(ref) {
					t.Fatalf("K=%d: selected sink has %d events, want %d", k, len(s.events), len(ref))
				}
			case s.closed, s.aborted:
			default:
				t.Fatalf("K=%d: sink neither released nor selected: %+v", k, s)
			}
		}
		if selected != 1 || n != k+1 {
			t.Fatalf("K=%d: %d selected sinks, %d regions closed", k, selected, n)
		}
		if end := want[k].End; counted.n != end+1 {
			t.Fatalf("K=%d: read %d events, want %d (through region K's close)", k, counted.n, end+1)
		}
	}
}

// countingSource counts the Next calls made on src.
type countingSource struct {
	src trace.EventSource
	n   int
}

func (c *countingSource) Next() (trace.Event, error) {
	c.n++
	return c.src.Next()
}

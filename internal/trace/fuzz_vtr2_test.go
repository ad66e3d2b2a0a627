package trace_test

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"testing"
	"time"

	"github.com/example/vectrace/internal/pipeline"
	"github.com/example/vectrace/internal/trace"
)

// fuzzContainerSeed encodes events as a VTR2 container for seeding the
// corpora, recording them through a real module so the writer's region
// tracker runs too.
func fuzzContainerSeed(events []trace.Event, opts trace.ContainerOptions) []byte {
	mod, err := pipeline.Compile("fuzz.c", fuzzFeedSrc)
	if err != nil {
		panic(err)
	}
	var buf bytes.Buffer
	if err := trace.EncodeContainer(&buf, mod, events, opts); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

// fuzzContainerBytes records fuzzFeedSrc straight into a container.
func fuzzContainerBytes(tb testing.TB, opts trace.ContainerOptions) []byte {
	tb.Helper()
	mod, err := pipeline.Compile("fuzz.c", fuzzFeedSrc)
	if err != nil {
		tb.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := pipeline.RecordContainer(mod, &buf, opts); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// hangGuard converts a hung fuzz body into an immediate panic naming the
// input. The Go fuzzing engine has no per-exec timeout, so a decoder hang
// would otherwise surface as a silent CI timeout with no reproducer; ten
// seconds is orders of magnitude above any legitimate body cost. Use as
// `defer hangGuard(data)()`.
func hangGuard(data []byte) func() {
	done := make(chan struct{})
	go func() {
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			panic(fmt.Sprintf("fuzz body hung on %d-byte input: %x", len(data), data))
		}
	}()
	return func() { close(done) }
}

// checkCorruptClass asserts the VTR2 error contract for in-memory inputs: a
// bytes.Reader cannot fail, so every error must be typed corruption carrying
// a byte offset (block errors additionally name their block in the text).
func checkCorruptClass(t *testing.T, path string, err error) {
	t.Helper()
	if !errors.Is(err, trace.ErrCorruptTrace) {
		t.Fatalf("%s error %v does not wrap ErrCorruptTrace", path, err)
	}
	if _, ok := trace.CorruptOffset(err); !ok {
		t.Fatalf("%s error %v carries no byte offset", path, err)
	}
}

// FuzzDecodeVTR2 feeds arbitrary bytes to both VTR2 readers. Neither may
// panic or hang; every failure on in-memory bytes must wrap ErrCorruptTrace
// with a byte offset; and when both readers accept an input they must agree
// event-for-event (the footer index describes exactly the events the
// sequential block walk yields).
func FuzzDecodeVTR2(f *testing.F) {
	recorded := fuzzContainerBytes(f, trace.ContainerOptions{BlockBytes: 128, Codec: "flate"})
	f.Add(append([]byte{}, recorded...))
	f.Add(fuzzContainerSeed(nil, trace.ContainerOptions{}))
	f.Add(fuzzContainerSeed([]trace.Event{
		{ID: 0, Addr: trace.NoAddr},
		{ID: 1, Addr: 64},
		{ID: 2, Addr: 56},
	}, trace.ContainerOptions{BlockBytes: 64, Codec: "none"}))
	// Malformed seeds: wrong magic, bad codec, truncations at structural
	// boundaries, flips in a block payload and in the footer.
	f.Add([]byte{})
	f.Add([]byte("VTR2"))
	f.Add([]byte("VTR2\x02"))
	f.Add([]byte("2RTV\x00"))
	for _, cut := range []int{5, 6, len(recorded) / 2, len(recorded) - 9, len(recorded) - 1} {
		if cut >= 0 && cut <= len(recorded) {
			f.Add(append([]byte{}, recorded[:cut]...))
		}
	}
	for _, off := range []int{4, 7, len(recorded) / 2, len(recorded) - 12, len(recorded) - 5} {
		if off >= 0 && off < len(recorded) {
			corrupt := append([]byte{}, recorded...)
			corrupt[off] ^= 0x40
			f.Add(corrupt)
		}
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		defer hangGuard(data)()
		// Sequential block walk, footer unread.
		src := trace.NewBlockSource(bytes.NewReader(data), nil)
		var seq []trace.Event
		var seqErr error
		for {
			ev, err := src.Next()
			if err != nil {
				if err != io.EOF {
					seqErr = err
					checkCorruptClass(t, "block source", err)
				}
				break
			}
			seq = append(seq, ev)
		}

		// Indexed open: footer parse. Opening is lazy about block payloads —
		// a damaged frame passes open and is caught at read time by the
		// frame-header-vs-footer cross-check — so the invariant is pairwise:
		// whenever both paths accept, they agree event-for-event, and an
		// input the block walk rejects must not survive a full indexed read.
		c, err := trace.OpenContainer(bytes.NewReader(data), int64(len(data)), nil)
		if err != nil {
			checkCorruptClass(t, "open container", err)
			return
		}
		all, rerr := c.Cursor().EventRange(nil, 0, c.NumEvents())
		if rerr != nil {
			checkCorruptClass(t, "indexed read", rerr)
			return
		}
		if seqErr != nil {
			t.Fatalf("indexed read accepted frames the block walk rejects: %v", seqErr)
		}
		if c.NumEvents() != len(seq) {
			t.Fatalf("index reports %d events, block walk decoded %d", c.NumEvents(), len(seq))
		}
		for i := range all {
			if all[i] != seq[i] {
				t.Fatalf("event %d: indexed %+v, sequential %+v", i, all[i], seq[i])
			}
		}
	})
}

// FuzzRegionIndex mutates a recorded container around its footer: the index
// must never direct a reader outside the file or into a panic. Opening
// either rejects the mutation as typed corruption, or yields an index whose
// every region materializes exactly its advertised events from the block
// walk's event stream.
func FuzzRegionIndex(f *testing.F) {
	recorded := fuzzContainerBytes(f, trace.ContainerOptions{BlockBytes: 96, Codec: "none"})
	f.Add(append([]byte{}, recorded...))
	// The footer occupies the tail; seed flips and truncations there, plus a
	// lying trailer length.
	for off := len(recorded) - 40; off < len(recorded); off++ {
		if off < 0 {
			continue
		}
		corrupt := append([]byte{}, recorded...)
		corrupt[off] ^= 0x11
		f.Add(corrupt)
	}
	for _, cut := range []int{len(recorded) - 1, len(recorded) - 8, len(recorded) - 20} {
		if cut >= 0 && cut <= len(recorded) {
			f.Add(append([]byte{}, recorded[:cut]...))
		}
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		defer hangGuard(data)()
		c, err := trace.OpenContainer(bytes.NewReader(data), int64(len(data)), nil)
		if err != nil {
			checkCorruptClass(t, "open container", err)
			return
		}
		// Replay sequentially as ground truth. A mutation can damage a block
		// payload while leaving the footer intact (open is lazy about
		// payloads), so a failed replay just means corruption lives in the
		// blocks; every region must then degrade to typed corruption or
		// materialize exactly its advertised events.
		src := trace.NewBlockSource(bytes.NewReader(data), nil)
		all, replayErr := trace.ReadAll(src)
		if replayErr != nil {
			checkCorruptClass(t, "sequential replay", replayErr)
		}
		cu := c.Cursor()
		for _, r := range c.Regions() {
			if r.Start < 0 || r.End < r.Start || r.End > c.NumEvents() {
				t.Fatalf("index region %+v out of bounds for %d events", r, c.NumEvents())
			}
			got, err := cu.EventRange(nil, r.Start, r.End)
			if err != nil {
				checkCorruptClass(t, "indexed region read", err)
				continue
			}
			if len(got) != r.Events() {
				t.Fatalf("region %+v materialized %d events", r, len(got))
			}
			if replayErr != nil {
				continue
			}
			for i, ev := range got {
				if ev != all[r.Start+i] {
					t.Fatalf("region %+v event %d: indexed %+v, sequential %+v", r, i, ev, all[r.Start+i])
				}
			}
		}
	})
}

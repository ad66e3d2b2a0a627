package server

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"testing"

	"github.com/example/vectrace/internal/core"
	"github.com/example/vectrace/internal/pipeline"
	"github.com/example/vectrace/internal/trace"
)

// uploadProgram records a raw VTR2 trace of about 750 KB; uploadLine is
// its inner loop.
const uploadProgram = `
double a[256];
void main() {
  int t; int i;
  for (t = 0; t < 86; t++) {
    for (i = 0; i < 256; i++) { a[i] = a[i] * 0.5 + 1.0; }
  }
  print(a[3]);
}
`

const uploadLine = 6

// TestFinishedUploadsReleasePayloads: a terminal job keeps only its result.
// After 16 instance-0 upload jobs with distinct ~750 KB VTR2 payloads
// finish, the live heap (post-GC) sits less than two payloads above where
// it started, although every job stays registered.
func TestFinishedUploadsReleasePayloads(t *testing.T) {
	const jobs = 16
	mod, err := pipeline.Compile("prog.c", uploadProgram)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := pipeline.RecordContainerCtx(context.Background(), mod, &buf, core.Budget{}, trace.ContainerOptions{Codec: "none"}); err != nil {
		t.Fatal(err)
	}
	size := buf.Len()
	if size < 600<<10 || size > 900<<10 {
		t.Fatalf("test setup: payload is %d bytes, want about 750 KB", size)
	}
	s := newTestServer(t, Config{Queue: 4, Workers: 2})
	heap := func() uint64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	base := heap()
	for i := 0; i < jobs; i++ {
		// A distinct source (a trailing comment) and a private copy of the
		// trace make every job its own upload: no cache hit shares one.
		src := uploadProgram + fmt.Sprintf("// job %d\n", i)
		j, err := s.Submit(JobSpec{Line: uploadLine}, src, bytes.Clone(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		<-j.Done()
		if st := j.State(); st != StateDone {
			t.Fatalf("job %d ended %s", i, st)
		}
	}
	grown := int64(heap()) - int64(base)
	t.Logf("%d finished upload jobs of %d B each: live heap grew %d B (%.2f payloads)",
		jobs, size, grown, float64(grown)/float64(size))
	if grown >= 2*int64(size) {
		t.Fatalf("finished upload jobs pin %.2f payloads of live heap, want < 2", float64(grown)/float64(size))
	}
}

package pipeline_test

// Streaming-vs-in-memory equivalence: the bounded-memory streaming path
// (AnalyzeLoopRegionsStreamCtx) must produce byte-identical reports to the
// resident-slice reference (referenceRegions: each region's graph built
// and analyzed on its own), for arbitrary generated programs, every loop,
// and every worker count.

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"testing"

	"github.com/example/vectrace/internal/core"
	"github.com/example/vectrace/internal/ddg"
	"github.com/example/vectrace/internal/pipeline"
	"github.com/example/vectrace/internal/testprog"
	"github.com/example/vectrace/internal/trace"
)

// encodeTrace serializes a live trace to VTR1 bytes.
func encodeTrace(t *testing.T, tr *trace.Trace) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := trace.Encode(&buf, tr.Events); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestStreamingMatchesInMemoryRandomPrograms(t *testing.T) {
	const programs = 12
	workerCounts := []int{1, 3, 8}
	for seed := int64(0); seed < programs; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			src := testprog.Random(seed)
			mod, _, tr, err := testprog.CompileAndTrace(fmt.Sprintf("s%d.c", seed), src)
			if err != nil {
				t.Fatalf("pipeline failed:\n%s\nerror: %v", src, err)
			}
			encoded := encodeTrace(t, tr)
			dopts := ddg.Options{}
			for _, lm := range mod.Loops {
				want, wantErr := referenceRegions(tr, lm.Line, dopts, core.Options{})
				for _, w := range workerCounts {
					copts := core.Options{Workers: w}
					dec := trace.NewDecoder(bytes.NewReader(encoded))
					got, gotErr := pipeline.AnalyzeLoopRegionsStreamCtx(context.Background(), mod, dec, lm.Line, dopts, copts)
					if (wantErr == nil) != (gotErr == nil) {
						t.Fatalf("loop line %d workers %d: in-memory err %v, streaming err %v",
							lm.Line, w, wantErr, gotErr)
					}
					if wantErr != nil {
						if wantErr.Error() != gotErr.Error() {
							t.Fatalf("loop line %d: error text differs: %q vs %q",
								lm.Line, wantErr, gotErr)
						}
						continue
					}
					if len(got) != len(want) {
						t.Fatalf("loop line %d workers %d: %d regions streamed, %d in memory",
							lm.Line, w, len(got), len(want))
					}
					for i := range want {
						if got[i].Index != want[i].Index || got[i].Events != want[i].Events {
							t.Fatalf("loop line %d region %d: header differs: %+v vs %+v",
								lm.Line, i, got[i], want[i])
						}
						if got[i].Report.String() != want[i].Report.String() {
							t.Fatalf("loop line %d region %d: rendered reports differ:\n%s\nvs\n%s",
								lm.Line, i, got[i].Report.String(), want[i].Report.String())
						}
						if !reflect.DeepEqual(got[i].Report, want[i].Report) {
							t.Fatalf("loop line %d region %d: report structures differ", lm.Line, i)
						}
					}
				}
			}
		})
	}
}

// TestLoopRegionStreamMatches: the single-region analysis of a streamed
// trace agrees with analyzing the in-memory region, and an out-of-range
// index names how many regions the loop has.
func TestLoopRegionStreamMatches(t *testing.T) {
	src := testprog.Random(42)
	mod, _, tr, err := testprog.CompileAndTrace("s.c", src)
	if err != nil {
		t.Fatal(err)
	}
	encoded := encodeTrace(t, tr)
	for _, lm := range mod.Loops {
		for idx := 0; idx < 4; idx++ {
			o, err := trace.OpenTrace(bytes.NewReader(encoded), int64(len(encoded)), nil)
			if err != nil {
				t.Fatal(err)
			}
			got, gotErr := pipeline.AnalyzeOpened(context.Background(), o, mod, lm.Line, idx, ddg.Options{}, core.Options{}, -1)
			want, wantErr := testprog.LoopRegion(tr, lm.Line, idx)
			if (wantErr == nil) != (gotErr == nil) {
				t.Fatalf("loop line %d idx %d: in-memory err %v, streaming err %v",
					lm.Line, idx, wantErr, gotErr)
			}
			if wantErr != nil {
				n := len(tr.Regions(lm.ID))
				wantText := fmt.Sprintf("pipeline: loop on line %d has %d dynamic regions, want index %d", lm.Line, n, idx)
				if gotErr.Error() != wantText {
					t.Fatalf("loop line %d idx %d: error %q, want %q", lm.Line, idx, gotErr, wantText)
				}
				continue
			}
			rep, err := pipeline.AnalyzeRegion(context.Background(), want, ddg.Options{}, core.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if got[0].Events != want.Len() || got[0].Report.String() != rep.String() {
				t.Fatalf("loop line %d idx %d: streamed region differs from the in-memory one", lm.Line, idx)
			}
		}
	}
}

// TestStreamingKernelParity runs the streaming path over a realistic kernel
// (nested loops, calls) and requires byte-identical rendered reports.
func TestStreamingKernelParity(t *testing.T) {
	src := `
double A[24];
double B[24];
double s;

double dot(int n) {
  int k;
  double acc;
  acc = 0.0;
  for (k = 1; k < n; k++) {
    acc = acc + A[k] * B[k-1];
  }
  return acc;
}

void main() {
  int i;
  int t;
  for (i = 0; i < 24; i++) {
    A[i] = 0.5 + 0.25 * i;
    B[i] = 1.5 - 0.125 * i;
  }
  for (t = 0; t < 6; t++) {
    s = s + dot(24);
    for (i = 1; i < 24; i++) {
      B[i] = B[i-1] * 0.5 + A[i];
    }
  }
  print(s);
}
`
	mod, _, tr, err := testprog.CompileAndTrace("k.c", src)
	if err != nil {
		t.Fatal(err)
	}
	encoded := encodeTrace(t, tr)
	for _, lm := range mod.Loops {
		want, wantErr := referenceRegions(tr, lm.Line, ddg.Options{}, core.Options{Workers: 4})
		dec := trace.NewDecoder(bytes.NewReader(encoded))
		got, gotErr := pipeline.AnalyzeLoopRegionsStreamCtx(context.Background(), mod, dec, lm.Line, ddg.Options{}, core.Options{Workers: 4})
		if (wantErr == nil) != (gotErr == nil) {
			t.Fatalf("loop line %d: errors differ: %v vs %v", lm.Line, wantErr, gotErr)
		}
		if wantErr != nil {
			continue
		}
		if len(got) != len(want) {
			t.Fatalf("loop line %d: %d regions streamed, %d in memory", lm.Line, len(got), len(want))
		}
		for i := range want {
			if got[i].Report.String() != want[i].Report.String() {
				t.Fatalf("loop line %d region %d: reports differ", lm.Line, i)
			}
		}
	}
}

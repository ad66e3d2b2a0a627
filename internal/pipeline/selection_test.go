package pipeline_test

// Differential test of the single-instance selection rule: analyzing
// region K alone — live, from a VTR1 stream, through a VTR2 index seek and
// through a VTR2 salvage scan — must return exactly region K of the
// materialized reference, including on a loop that recurses into itself,
// where close order differs from open order.

import (
	"bytes"
	"context"
	"fmt"
	"testing"

	"github.com/example/vectrace/internal/core"
	"github.com/example/vectrace/internal/ddg"
	"github.com/example/vectrace/internal/pipeline"
	"github.com/example/vectrace/internal/testprog"
	"github.com/example/vectrace/internal/trace"
)

// selfRecursiveLoop is a program whose loop on line 6 calls back into
// itself: the nested regions close before the ones that opened them.
const selfRecursiveLoop = `
double a[64];
double s;
void walk(int d) {
  int i;
  for (i = 0; i < 4; i++) {
    a[d * 8 + i] = a[d * 8 + i] * 0.5 + 1.5 * i;
    if (i == 1) {
      if (d < 3) { walk(d + 1); }
    }
    s = s + a[d * 8 + i];
  }
}
void main() {
  walk(0);
  walk(2);
  print(s);
}
`

// instanceCase is one way of reaching a single region.
type instanceCase struct {
	name    string
	analyze func(line, k int) ([]pipeline.RegionReport, error)
}

func TestInstanceSelectionMatchesReference(t *testing.T) {
	programs := map[string]string{"self-recursive": selfRecursiveLoop}
	for seed := int64(0); seed < 6; seed++ {
		programs[fmt.Sprintf("random-%d", seed)] = testprog.Random(seed)
	}
	copts := core.Options{Workers: 2}
	for name, src := range programs {
		t.Run(name, func(t *testing.T) {
			mod, _, tr, err := pipeline.CompileAndTrace(name+".c", src)
			if err != nil {
				t.Fatal(err)
			}
			vtr1, vtr2 := recordBoth(t, mod, trace.ContainerOptions{BlockBytes: 256})
			salvage := vtr2[:len(vtr2)-3] // footer truncated: no index
			opened := func(data []byte, scanWorkers int) func(line, k int) ([]pipeline.RegionReport, error) {
				return func(line, k int) ([]pipeline.RegionReport, error) {
					o, err := trace.OpenTrace(bytes.NewReader(data), int64(len(data)), nil)
					if err != nil {
						t.Fatal(err)
					}
					return pipeline.AnalyzeOpened(context.Background(), o, mod, line, k, ddg.Options{}, copts, scanWorkers)
				}
			}
			cases := []instanceCase{
				{"live", func(line, k int) ([]pipeline.RegionReport, error) {
					return pipeline.AnalyzeSourceCtx(context.Background(), name+".c", src, line, k, ddg.Options{}, copts, core.Budget{})
				}},
				{"vtr1", opened(vtr1, 0)},
				{"vtr2-indexed", opened(vtr2, 2)},
				{"vtr2-salvage", opened(salvage, 0)},
			}
			if name == "self-recursive" && len(tr.Regions(mod.LoopByLine(6).ID)) != 6 {
				t.Fatal("test setup: the self-recursive loop should run 6 regions")
			}
			for _, line := range testprog.LoopLines(mod) {
				ref, _ := referenceRegions(tr, line, ddg.Options{}, copts)
				n := len(ref)
				for _, k := range []int{0, n / 2, n - 1, n} {
					if k < 0 {
						continue
					}
					for _, c := range cases {
						got, gotErr := c.analyze(line, k)
						if k == n {
							want := fmt.Sprintf("pipeline: loop on line %d has %d dynamic regions, want index %d", line, n, k)
							if gotErr == nil || gotErr.Error() != want || len(got) != 0 {
								t.Fatalf("%s line %d K=%d: got %d regions, error %v; want %q", c.name, line, k, len(got), gotErr, want)
							}
							continue
						}
						if len(got) != 1 {
							t.Fatalf("%s line %d K=%d: %d regions, want 1 (error %v)", c.name, line, k, len(got), gotErr)
						}
						checkInstance(t, fmt.Sprintf("%s line %d K=%d", c.name, line, k), got[0], gotErr, ref[k])
					}
				}
			}
		})
	}
}

// checkInstance compares one selected region with its reference slot:
// index, event count, report bytes and error text.
func checkInstance(t *testing.T, where string, got pipeline.RegionReport, gotErr error, want pipeline.RegionReport) {
	t.Helper()
	text := func(err error) string {
		if err == nil {
			return "<nil>"
		}
		return err.Error()
	}
	render := func(rep *core.Report) string {
		if rep == nil {
			return "<nil>"
		}
		return rep.String()
	}
	if got.Index != want.Index || got.Events != want.Events {
		t.Fatalf("%s: region %d with %d events, want region %d with %d", where, got.Index, got.Events, want.Index, want.Events)
	}
	if text(got.Err) != text(want.Err) || text(gotErr) != text(want.Err) {
		t.Fatalf("%s: errors %q / %q, want %q", where, text(got.Err), text(gotErr), text(want.Err))
	}
	if render(got.Report) != render(want.Report) {
		t.Fatalf("%s: report differs from the reference:\n%s\nwant:\n%s", where, render(got.Report), render(want.Report))
	}
}

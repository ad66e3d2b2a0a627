package pipeline_test

import (
	"context"
	"reflect"
	"testing"
	"time"

	"github.com/example/vectrace/internal/core"
	"github.com/example/vectrace/internal/ddg"
	"github.com/example/vectrace/internal/kernels"
	"github.com/example/vectrace/internal/pipeline"
	"github.com/example/vectrace/internal/reference"
	"github.com/example/vectrace/internal/testprog"
)

// tableKernels returns the programs behind the paper's Tables 1–3: every
// SPEC benchmark kernel, the two Table 2 case studies, and both variants of
// each UTDSP pair.
func tableKernels() []kernels.Kernel {
	var ks []kernels.Kernel
	for _, b := range kernels.SPEC() {
		ks = append(ks, b.Kernel)
	}
	ks = append(ks, kernels.GaussSeidel(32, 2), kernels.PDESolver(16, 4))
	for _, p := range kernels.UTDSP() {
		ks = append(ks, p.Array, p.Pointer)
	}
	return ks
}

// TestAnalyzeRegionWholeTraceMatchesGraph pins the whole-program route
// (vectrace analyze without -line, annotate): on the full trace of every
// Table 1–3 kernel, both AnalyzeRegion over the held trace and the live
// whole-run region (line 0) equal the per-candidate graph reference, with
// and without RelaxReductions.
func TestAnalyzeRegionWholeTraceMatchesGraph(t *testing.T) {
	ks := tableKernels()
	if len(ks) != 38 {
		t.Fatalf("%d Table 1–3 kernels, want 38", len(ks))
	}
	var events int
	var streamTime, graphTime time.Duration
	for _, k := range ks {
		_, _, tr, err := testprog.CompileAndTrace(k.Name+".c", k.Source)
		if err != nil {
			t.Fatalf("%s: %v", k.Name, err)
		}
		events += len(tr.Events)
		g, err := reference.Build(tr)
		if err != nil {
			t.Fatalf("%s: %v", k.Name, err)
		}
		for _, relax := range []bool{false, true} {
			copts := core.Options{RelaxReductions: relax}
			start := time.Now()
			got, err := pipeline.AnalyzeRegion(context.Background(), tr, ddg.Options{}, copts)
			streamTime += time.Since(start)
			if err != nil {
				t.Fatalf("%s relax=%v: %v", k.Name, relax, err)
			}
			start = time.Now()
			want, err := reference.AnalyzeCtx(context.Background(), g, copts)
			graphTime += time.Since(start)
			if err != nil {
				t.Fatalf("%s relax=%v: graph reference: %v", k.Name, relax, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s relax=%v: whole-trace report differs from the graph reference\ngot:  %v\nwant: %v",
					k.Name, relax, got, want)
			}
			live, err := pipeline.AnalyzeSourceCtx(context.Background(), k.Name+".c", k.Source, 0, 0, ddg.Options{}, copts, core.Budget{})
			if err != nil {
				t.Fatalf("%s relax=%v: live whole run: %v", k.Name, relax, err)
			}
			if live[0].Events != len(tr.Events) || !reflect.DeepEqual(live[0].Report, want) {
				t.Fatalf("%s relax=%v: live whole-run report differs from the graph reference\ngot:  %v\nwant: %v",
					k.Name, relax, live[0].Report, want)
			}
		}
	}
	t.Logf("%d kernels, %d events: stream kernel %v, graph reference %v (both reduction modes)",
		len(ks), events, streamTime, graphTime)
}

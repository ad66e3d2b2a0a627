package pipeline_test

import (
	"context"
	"errors"
	"fmt"

	"github.com/example/vectrace/internal/core"
	"github.com/example/vectrace/internal/ddg"
	"github.com/example/vectrace/internal/pipeline"
	"github.com/example/vectrace/internal/reference"
	"github.com/example/vectrace/internal/trace"
)

// referenceRegions is the independent reference the region fan-outs are
// tested against. It slices each dynamic region out of the resident trace
// (trace.Regions, as pipeline.LoopRegion does) and analyzes the region's materialized graph with
// reference.BuildOpts + reference.AnalyzeCtx, so it shares no dispatcher, feed, or
// stream-kernel code with the entry points under test. Its results follow
// their contract: one report per region in index order, each region
// analyzed with Workers=1, a failure under the "pipeline: region N" prefix
// in its own slot, and the failures joined in index order.
func referenceRegions(tr *trace.Trace, line int, dopts ddg.Options, copts core.Options) ([]pipeline.RegionReport, error) {
	lm := tr.Module.LoopByLine(line)
	if lm == nil {
		return nil, fmt.Errorf("pipeline: no loop on line %d", line)
	}
	regions := tr.Regions(lm.ID)
	n := len(regions)
	if n == 0 {
		return nil, fmt.Errorf("pipeline: loop on line %d never executed", line)
	}
	copts.Workers = 1
	out := make([]pipeline.RegionReport, n)
	var errs []error
	for i := range out {
		sub := tr.Slice(regions[i])
		out[i] = pipeline.RegionReport{Index: i, Events: sub.Len()}
		g, err := reference.BuildOpts(sub, dopts)
		if err == nil {
			out[i].Report, err = reference.AnalyzeCtx(context.Background(), g, copts)
		}
		if err != nil {
			out[i].Err = fmt.Errorf("pipeline: region %d: %w", i, err)
			errs = append(errs, out[i].Err)
		}
	}
	return out, errors.Join(errs...)
}

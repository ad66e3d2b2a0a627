package testprog

import (
	"context"
	"fmt"

	"github.com/example/vectrace/internal/core"
	"github.com/example/vectrace/internal/interp"
	"github.com/example/vectrace/internal/ir"
	"github.com/example/vectrace/internal/pipeline"
	"github.com/example/vectrace/internal/trace"
)

// Trace executes the module's main function and returns the execution
// summary with the whole recorded trace: the in-memory form the graph
// reference and the differential suites consume.
func Trace(mod *ir.Module) (*interp.Result, *trace.Trace, error) {
	return pipeline.TraceCtxOpts(context.Background(), mod, core.Budget{}, core.Options{})
}

// CompileAndTrace is pipeline.Compile followed by Trace.
func CompileAndTrace(filename, src string) (*ir.Module, *interp.Result, *trace.Trace, error) {
	mod, err := pipeline.Compile(filename, src)
	if err != nil {
		return nil, nil, nil, err
	}
	res, tr, err := Trace(mod)
	return mod, res, tr, err
}

// LoopRegion returns the idx-th dynamic sub-trace of the source loop whose
// "for"/"while" keyword is on the given line.
func LoopRegion(tr *trace.Trace, line, idx int) (*trace.Trace, error) {
	lm := tr.Module.LoopByLine(line)
	if lm == nil {
		return nil, fmt.Errorf("testprog: no loop on line %d", line)
	}
	regions := tr.Regions(lm.ID)
	if idx < 0 || idx >= len(regions) {
		return nil, fmt.Errorf("testprog: loop on line %d has %d dynamic regions, want index %d", line, len(regions), idx)
	}
	return tr.Slice(regions[idx]), nil
}

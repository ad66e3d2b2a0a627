package core

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"github.com/example/vectrace/internal/ddg"
	"github.com/example/vectrace/internal/obs"
)

// InstrReport is the analysis result for one candidate static instruction
// within one analyzed region.
type InstrReport struct {
	ID   int32
	Line int
	// AssignID is the source assignment statement the instruction was
	// lowered from (-1 if none); reports group by it to speak the paper's
	// statement-level language ("two of the eight addition operations").
	AssignID int32
	// Text is the instruction's printable form, for case-study inspection.
	Text string

	Instances  int
	Partitions int
	// CriticalPath is the largest timestamp (minimum sequential steps).
	CriticalPath int32
	// AvgPartitionSize = Instances / Partitions: the instruction's
	// available fine-grained concurrency.
	AvgPartitionSize float64

	Unit    StrideSummary
	NonUnit StrideSummary

	// IsReduction marks instructions whose instances form an accumulator
	// chain in this execution.
	IsReduction bool
}

// StrideSummary is the per-instruction slice of a stride analysis.
type StrideSummary struct {
	VecOps        int
	Subpartitions int
	SumSizes      int
}

// AvgVecSize returns the mean non-singleton subpartition size.
func (s StrideSummary) AvgVecSize() float64 {
	if s.Subpartitions == 0 {
		return 0
	}
	return float64(s.SumSizes) / float64(s.Subpartitions)
}

// Report is the analysis result for one region (typically one hot-loop
// sub-trace), aggregating the columns of the paper's Tables 1–3.
type Report struct {
	// TotalCandidateOps is the number of dynamic floating-point candidate
	// operations in the region: the denominator of the percentage metrics.
	TotalCandidateOps int
	// TotalNodes is the region's dynamic instruction count.
	TotalNodes int

	// AvgConcurrency is the paper's "Average Concur." column: the mean
	// parallel-partition size across the partitions of all candidate
	// instructions (singletons included).
	AvgConcurrency float64

	// UnitVecOpsPct / UnitAvgVecSize are the "Unit Stride" columns:
	// percentage of candidate operations in non-singleton unit-stride
	// subpartitions, and those subpartitions' average size.
	UnitVecOpsPct  float64
	UnitAvgVecSize float64

	// NonUnitVecOpsPct / NonUnitAvgVecSize are the "Non-unit Stride"
	// columns, from the §3.3 wait-list analysis.
	NonUnitVecOpsPct  float64
	NonUnitAvgVecSize float64

	// PerInstr holds per-instruction detail, sorted by source line then ID.
	PerInstr []InstrReport
}

// analyzeUnitHook, when non-nil, observes the start of every
// per-candidate analysis stage in both engines. It exists for
// fault-injection tests — injecting panics and delays into the sweep — and
// is never set outside tests (see SetAnalyzeUnitHook in export_test.go).
var analyzeUnitHook func(id int32)

// AnalyzeCtx runs the complete §3 pipeline over the graph: Algorithm 1 per
// candidate instruction, unit-stride subpartitioning of every parallel
// partition, and the non-unit stride analysis of the leftovers.
//
// It is the graph reference the stream kernel is tested against: one
// Algorithm-1 sweep of the whole graph per candidate, fanned out across
// opts.WorkerCount() workers. Results land in index-addressed slots and
// all aggregation happens afterwards over integer counters in candidate-id
// order, making the output byte-identical for every worker count.
//
// Its failure model: cooperative cancellation through ctx (checked
// between candidates), the opts.Budget.MaxAnalysisBytes working-set bound
// (exceeded ⇒ an error wrapping ErrResourceLimit, before any large
// allocation), and per-unit panic isolation (a poisoned candidate surfaces as a *UnitError naming
// it, while every other candidate's row is computed normally).
//
// On error the returned report is still populated with the successful
// candidates' rows — degraded, never silently partial: the error lists
// every failed unit. The report is nil only when nothing was analyzed
// (budget exceeded or canceled before the sweep).
func AnalyzeCtx(ctx context.Context, g *ddg.Graph, opts Options) (*Report, error) {
	rep := &Report{TotalNodes: g.NumNodes()}
	instances := g.CandidateInstances()
	ids := make([]int32, 0, len(instances))
	for id := range instances {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	if len(ids) == 0 {
		return rep, nil
	}
	if err := Canceled(ctx); err != nil {
		return nil, err
	}
	if err := opts.Budget.checkAnalysisBudget(len(g.Nodes), len(ids)); err != nil {
		return nil, err
	}

	// The recorder is resolved once per analysis, never per node or per
	// candidate; a nil recorder reduces every hook below to one branch.
	rec := obs.FromContext(ctx)
	if rec != nil {
		rec.Add(obs.DDGNodes, int64(g.NumNodes()))
		rec.Add(obs.DDGEdges, g.NumEdges())
		rec.Add(obs.CandidatesAnalyzed, int64(len(ids)))
		rec.Set(obs.BudgetMaxAnalysisBytes, opts.Budget.MaxAnalysisBytes)
		rec.Max(obs.AnalysisFootprintBytes, analysisFootprint(len(g.Nodes), len(ids), opts.WorkerCount()))
	}

	results := make([]InstrReport, len(ids))
	sweepErr := ParallelFor(ctx, len(ids), opts.WorkerCount(), func(i int) error {
		return Guard(i, "candidate", int64(ids[i]), func() error {
			if analyzeUnitHook != nil {
				analyzeUnitHook(ids[i])
			}
			sc := getScratch(len(g.Nodes), rec)
			defer sc.release()
			results[i] = analyzeInstr(g, ids[i], instances[ids[i]], opts, sc)
			return nil
		})
	})
	if sweepErr != nil {
		// Reset slots the sweep never reached (cancellation) or left
		// poisoned to identity-only rows, so the degraded report still names
		// every candidate and sorts exactly like the no-fault report. A
		// successful row always carries the instruction's printed form, so
		// an empty Text identifies a degraded slot.
		for i := range results {
			if results[i].Text == "" {
				in := g.Mod.InstrAt(ids[i])
				results[i] = InstrReport{ID: ids[i], Line: in.Pos.Line, AssignID: in.AssignID}
			}
		}
	}

	rep.aggregate(results, rec)
	return rep, sweepErr
}

// aggregate installs the per-candidate rows in rep, fills the region-wide
// metrics from them, records their counters, and sorts the rows by source
// line then ID. Both engines end here, so their reports agree field for
// field.
func (rep *Report) aggregate(results []InstrReport, rec *obs.Recorder) {
	totalOps := 0
	totalPartitions := 0
	unitVecOps, unitSubparts, unitSum := 0, 0, 0
	nonVecOps, nonSubparts, nonSum := 0, 0, 0
	for i := range results {
		r := &results[i]
		totalOps += r.Instances
		totalPartitions += r.Partitions
		unitVecOps += r.Unit.VecOps
		unitSubparts += r.Unit.Subpartitions
		unitSum += r.Unit.SumSizes
		nonVecOps += r.NonUnit.VecOps
		nonSubparts += r.NonUnit.Subpartitions
		nonSum += r.NonUnit.SumSizes
	}
	rep.PerInstr = results
	if rec != nil {
		rec.Add(obs.PartitionsEmitted, int64(totalPartitions))
		rec.Add(obs.UnitVecOps, int64(unitVecOps))
		rec.Add(obs.NonUnitVecOps, int64(nonVecOps))
	}

	rep.TotalCandidateOps = totalOps
	if totalPartitions > 0 {
		rep.AvgConcurrency = float64(totalOps) / float64(totalPartitions)
	}
	if totalOps > 0 {
		rep.UnitVecOpsPct = 100 * float64(unitVecOps) / float64(totalOps)
		rep.NonUnitVecOpsPct = 100 * float64(nonVecOps) / float64(totalOps)
	}
	if unitSubparts > 0 {
		rep.UnitAvgVecSize = float64(unitSum) / float64(unitSubparts)
	}
	if nonSubparts > 0 {
		rep.NonUnitAvgVecSize = float64(nonSum) / float64(nonSubparts)
	}

	sort.SliceStable(rep.PerInstr, func(i, j int) bool {
		if rep.PerInstr[i].Line != rep.PerInstr[j].Line {
			return rep.PerInstr[i].Line < rep.PerInstr[j].Line
		}
		return rep.PerInstr[i].ID < rep.PerInstr[j].ID
	})
}

// AnalyzeInstr runs the pipeline for a single static instruction.
func AnalyzeInstr(g *ddg.Graph, id int32, opts Options) InstrReport {
	sc := getScratch(len(g.Nodes), nil)
	defer sc.release()
	return analyzeInstr(g, id, g.Instances(id), opts, sc)
}

// analyzeInstr is the complete per-candidate pipeline — one Algorithm 1
// sweep for this candidate alone, then the shared post-timestamp stages —
// over the precomputed instance list, using the scratch's recycled buffers.
// It is the unit of work of AnalyzeCtx and AnalyzeInstr, and it only reads
// shared state.
func analyzeInstr(g *ddg.Graph, id int32, inst []int32, opts Options, sc *instrScratch) InstrReport {
	red := detectReductionInst(g, id, inst)
	var cut *reductionInfo
	if opts.RelaxReductions {
		cut = red
	}
	fillTimestampsRed(g, id, cut, sc.ts)
	if cap(sc.instTS) < len(inst) {
		sc.instTS = make([]int32, len(inst))
	}
	instTS := sc.instTS[:len(inst)]
	for k, n := range inst {
		instTS[k] = sc.ts[n]
	}
	return finishInstr(g, id, inst, instTS, red, sc)
}

// finishInstr runs the stages after timestamping — partitioning,
// unit-stride subpartitioning, the non-unit wait-list analysis, and report
// assembly — for one candidate. It consumes only per-instance timestamps
// (instTS parallel to inst), gathered from the sweep's whole-graph array.
func finishInstr(g *ddg.Graph, id int32, inst, instTS []int32, red *reductionInfo, sc *instrScratch) InstrReport {
	parts := sc.partition(inst, instTS)
	elem := elemSizeOf(g, id)
	unit, non := strideStats(g, parts, elem, sc)
	var cp int32
	for _, t := range instTS {
		if t > cp {
			cp = t
		}
	}
	in := g.Mod.InstrAt(id)
	rep := InstrReport{
		ID: id, Line: in.Pos.Line, AssignID: in.AssignID, Text: in.String(),
		Instances: len(inst), Partitions: len(parts), CriticalPath: cp,
		Unit:        StrideSummary{VecOps: unit.VecOps, Subpartitions: unit.Subpartitions, SumSizes: unit.SumSizes},
		NonUnit:     StrideSummary{VecOps: non.VecOps, Subpartitions: non.Subpartitions, SumSizes: non.SumSizes},
		IsReduction: red != nil,
	}
	if len(parts) > 0 {
		rep.AvgPartitionSize = float64(len(inst)) / float64(len(parts))
	}
	return rep
}

// StatementGroup aggregates the per-instruction reports of one source
// assignment statement — the granularity the paper's case studies reason at
// (the Gauss-Seidel study classifies "two out of the eight addition
// operations" of the stencil statement as vectorizable).
type StatementGroup struct {
	AssignID int32
	Line     int
	Instrs   []InstrReport
}

// GroupByStatement partitions the report's per-instruction entries by their
// originating source assignment, ordered by first appearance.
func (r *Report) GroupByStatement() []StatementGroup {
	index := make(map[int32]int)
	var out []StatementGroup
	for _, ir := range r.PerInstr {
		i, ok := index[ir.AssignID]
		if !ok {
			i = len(out)
			index[ir.AssignID] = i
			out = append(out, StatementGroup{AssignID: ir.AssignID, Line: ir.Line})
		}
		out[i].Instrs = append(out[i].Instrs, ir)
	}
	return out
}

// String renders the report compactly for CLI output.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "nodes=%d fp-ops=%d avg-concurrency=%.1f\n", r.TotalNodes, r.TotalCandidateOps, r.AvgConcurrency)
	fmt.Fprintf(&b, "unit-stride:     %5.1f%% vec ops, avg vec size %.1f\n", r.UnitVecOpsPct, r.UnitAvgVecSize)
	fmt.Fprintf(&b, "non-unit stride: %5.1f%% vec ops, avg vec size %.1f\n", r.NonUnitVecOpsPct, r.NonUnitAvgVecSize)
	for _, ir := range r.PerInstr {
		red := ""
		if ir.IsReduction {
			red = " [reduction]"
		}
		fmt.Fprintf(&b, "  line %-4d inst=%-8d parts=%-6d avg=%-8.1f unit=%d(avg %.1f) nonunit=%d(avg %.1f)%s\n",
			ir.Line, ir.Instances, ir.Partitions, ir.AvgPartitionSize,
			ir.Unit.VecOps, ir.Unit.AvgVecSize(), ir.NonUnit.VecOps, ir.NonUnit.AvgVecSize(), red)
	}
	return b.String()
}

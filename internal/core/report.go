package core

import (
	"fmt"
	"sort"
	"strings"

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
	// VecOps counts instances in non-singleton uniform-stride
	// subpartitions — the potentially vectorizable operations.
	VecOps int
	// Subpartitions counts the non-singleton subpartitions.
	Subpartitions int
	// SumSizes accumulates their sizes; AvgVecSize = SumSizes/Subpartitions.
	SumSizes int
}

// add counts one non-singleton subpartition of size members.
func (s *StrideSummary) add(size int) {
	s.VecOps += size
	s.Subpartitions++
	s.SumSizes += size
}

// merge adds o's counts to s.
func (s *StrideSummary) merge(o StrideSummary) {
	s.VecOps += o.VecOps
	s.Subpartitions += o.Subpartitions
	s.SumSizes += o.SumSizes
}

// AvgVecSize returns the mean non-singleton subpartition size, the
// paper's "Average Vec. Size" column.
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
// per-candidate analysis stage in the stream kernel's Finish. It exists for
// fault-injection tests — injecting panics and delays into the sweep — and
// is never set outside tests (see SetAnalyzeUnitHook in export_test.go).
var analyzeUnitHook func(id int32)

// aggregate installs the per-candidate rows in rep, fills the region-wide
// metrics from them, records their counters, and sorts the rows by source
// line then ID.
func (rep *Report) aggregate(results []InstrReport, rec *obs.Recorder) {
	partitions := 0
	var unit, non StrideSummary
	for i := range results {
		r := &results[i]
		rep.TotalCandidateOps += r.Instances
		partitions += r.Partitions
		unit.merge(r.Unit)
		non.merge(r.NonUnit)
	}
	rep.PerInstr = results
	if rec != nil {
		rec.Add(obs.PartitionsEmitted, int64(partitions))
		rec.Add(obs.UnitVecOps, int64(unit.VecOps))
		rec.Add(obs.NonUnitVecOps, int64(non.VecOps))
	}
	if partitions > 0 {
		rep.AvgConcurrency = float64(rep.TotalCandidateOps) / float64(partitions)
	}
	if ops := rep.TotalCandidateOps; ops > 0 {
		rep.UnitVecOpsPct = 100 * float64(unit.VecOps) / float64(ops)
		rep.NonUnitVecOpsPct = 100 * float64(non.VecOps) / float64(ops)
	}
	rep.UnitAvgVecSize = unit.AvgVecSize()
	rep.NonUnitAvgVecSize = non.AvgVecSize()

	sort.SliceStable(rep.PerInstr, func(i, j int) bool {
		if rep.PerInstr[i].Line != rep.PerInstr[j].Line {
			return rep.PerInstr[i].Line < rep.PerInstr[j].Line
		}
		return rep.PerInstr[i].ID < rep.PerInstr[j].ID
	})
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

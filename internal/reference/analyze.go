package reference

import (
	"context"
	"fmt"
	"sort"

	"github.com/example/vectrace/internal/core"
	"github.com/example/vectrace/internal/ddg"
)

// Timestamps runs Algorithm 1 for static instruction id over the graph and
// returns per-node timestamps.
//
// Nodes are visited in trace order, which is a topological order of the
// DDG. Each node receives the maximum timestamp among its flow
// predecessors, plus one when the node is an instance of id. Property 3.1:
// an instance's timestamp is the largest number of id-instances on any DDG
// path ending at it, so same-timestamp instances are mutually independent
// and each is scheduled as early as possible.
//
// Under opts.RelaxReductions, when id is a reduction each instance ignores
// the predecessor that carries its accumulator (§4.1's extension).
func Timestamps(g *Graph, id int32, opts core.Options) []int32 {
	var cut map[int32]int32
	if opts.RelaxReductions {
		cut = accumulatorEdges(g, id)
	}
	return timestamps(g, id, cut)
}

// timestamps is Algorithm 1 for id where each instance n with an entry in
// cut ignores its predecessor cut[n].
func timestamps(g *Graph, id int32, cut map[int32]int32) []int32 {
	ts := make([]int32, len(g.Nodes))
	var preds []int32
	for i := range g.Nodes {
		instance := g.Nodes[i].Instr == id
		skip := NoPred // never a predecessor
		if c, ok := cut[int32(i)]; ok && instance {
			skip = c
		}
		preds = g.Preds(int32(i), preds[:0])
		var t int32
		for _, p := range preds {
			if p != skip {
				t = max(t, ts[p])
			}
		}
		if instance {
			t++
		}
		ts[i] = t
	}
	return ts
}

// Partitions runs Algorithm 1 for id and groups its instances by
// timestamp: the maximal sets of mutually independent instances, in
// increasing timestamp order, each listing its members in trace order.
func Partitions(g *Graph, id int32, opts core.Options) []core.Partition {
	return partitionsOf(g, id, Timestamps(g, id, opts))
}

// partitionsOf groups id's instances by their timestamps in ts.
func partitionsOf(g *Graph, id int32, ts []int32) []core.Partition {
	byTS := make(map[int32][]int32)
	for _, n := range g.Instances(id) {
		byTS[ts[n]] = append(byTS[ts[n]], n)
	}
	parts := make([]core.Partition, 0, len(byTS))
	for t, nodes := range byTS {
		parts = append(parts, core.Partition{Timestamp: t, Nodes: nodes})
	}
	sort.Slice(parts, func(i, j int) bool { return parts[i].Timestamp < parts[j].Timestamp })
	return parts
}

// tupleOf returns the memory-access tuple of a candidate instance (§3.2):
// the address its result is first stored to, then the addresses its two
// operands were loaded from. A constant, a register-resident value, or a
// result that is never stored contributes the paper's artificial address
// zero.
func tupleOf(nd *Node) [3]int64 {
	sa := nd.StoreAddr
	if sa == ddg.NoAddr {
		sa = 0
	}
	return [3]int64{sa, nd.OpAddr1, nd.OpAddr2}
}

// byTuple returns nodes sorted lexicographically by memory-access tuple,
// ties kept in their given order: the order in which members of a uniform
// stride become adjacent.
func byTuple(g *Graph, nodes []int32) []int32 {
	sorted := append([]int32(nil), nodes...)
	sort.SliceStable(sorted, func(i, j int) bool {
		a, b := tupleOf(&g.Nodes[sorted[i]]), tupleOf(&g.Nodes[sorted[j]])
		for k := range a {
			if a[k] != b[k] {
				return a[k] < b[k]
			}
		}
		return false
	})
	return sorted
}

// step returns the per-component difference between the tuples of two
// nodes, b minus a.
func step(g *Graph, a, b int32) [3]int64 {
	ta, tb := tupleOf(&g.Nodes[a]), tupleOf(&g.Nodes[b])
	return [3]int64{tb[0] - ta[0], tb[1] - ta[1], tb[2] - ta[2]}
}

// UnitStrideSubpartitions implements §3.2: the members of one partition,
// sorted by tuple, are scanned in order; the next member joins the current
// subpartition when every component advances by zero or by the element
// size, and by the same amounts as the subpartition's previous step.
// Otherwise it starts a new subpartition.
func UnitStrideSubpartitions(g *Graph, p *core.Partition, elemSize int64) []core.Subpartition {
	var out []core.Subpartition
	for _, n := range byTuple(g, p.Nodes) {
		if len(out) > 0 {
			cur := &out[len(out)-1]
			d := step(g, cur.Nodes[len(cur.Nodes)-1], n)
			unit := true
			for _, c := range d {
				unit = unit && (c == 0 || c == elemSize)
			}
			if unit && (len(cur.Nodes) == 1 || d == cur.Strides) {
				cur.Strides = d
				cur.Nodes = append(cur.Nodes, n)
				continue
			}
		}
		out = append(out, core.Subpartition{Nodes: []int32{n}})
	}
	return out
}

// NonUnitStrideSubpartitions implements §3.3's wait-list scan over nodes
// (the unit-stride singletons of one partition): sorted by tuple, the first
// pending node opens a subpartition, the second fixes its stride (any
// constant per component), and every later node either continues that
// stride from the subpartition's last member or goes on the wait list.
// The wait list is rescanned the same way until it is empty.
func NonUnitStrideSubpartitions(g *Graph, nodes []int32) []core.Subpartition {
	var out []core.Subpartition
	for pending := byTuple(g, nodes); len(pending) > 0; {
		sp := core.Subpartition{Nodes: []int32{pending[0]}}
		var wait []int32
		for _, n := range pending[1:] {
			d := step(g, sp.Nodes[len(sp.Nodes)-1], n)
			switch {
			case len(sp.Nodes) == 1:
				sp.Strides = d
			case d != sp.Strides:
				wait = append(wait, n)
				continue
			}
			sp.Nodes = append(sp.Nodes, n)
		}
		out = append(out, sp)
		pending = wait
	}
	return out
}

// strideSummaries runs §3.2 over every non-singleton partition and §3.3
// over each partition's unit-stride singletons, counting the subpartitions
// of two or more members. A singleton partition is serial: neither analysis
// sees it.
func strideSummaries(g *Graph, parts []core.Partition, elemSize int64) (unit, non core.StrideSummary) {
	count := func(s *core.StrideSummary, sp core.Subpartition) {
		if n := len(sp.Nodes); n > 1 {
			s.VecOps += n
			s.Subpartitions++
			s.SumSizes += n
		}
	}
	for i := range parts {
		if len(parts[i].Nodes) < 2 {
			continue
		}
		var singles []int32
		for _, sp := range UnitStrideSubpartitions(g, &parts[i], elemSize) {
			count(&unit, sp)
			if len(sp.Nodes) == 1 {
				singles = append(singles, sp.Nodes[0])
			}
		}
		if len(singles) < 2 {
			continue
		}
		for _, sp := range NonUnitStrideSubpartitions(g, singles) {
			count(&non, sp)
		}
	}
	return unit, non
}

// AnalyzeInstr runs the whole §3 pipeline for a single static instruction:
// Algorithm 1, partitioning, and both stride analyses.
func AnalyzeInstr(g *Graph, id int32, opts core.Options) core.InstrReport {
	in := g.Mod.InstrAt(id)
	accum := accumulatorEdges(g, id)
	var cut map[int32]int32
	if opts.RelaxReductions {
		cut = accum
	}
	ts := timestamps(g, id, cut)
	parts := partitionsOf(g, id, ts)
	unit, non := strideSummaries(g, parts, in.Type.Size())
	rep := core.InstrReport{
		ID: id, Line: in.Pos.Line, AssignID: in.AssignID, Text: in.String(),
		Instances: len(g.Instances(id)), Partitions: len(parts),
		Unit: unit, NonUnit: non,
		IsReduction: accum != nil,
	}
	for _, n := range g.Instances(id) {
		rep.CriticalPath = max(rep.CriticalPath, ts[n])
	}
	if len(parts) > 0 {
		rep.AvgPartitionSize = float64(rep.Instances) / float64(len(parts))
	}
	return rep
}

// unitHook, when non-nil, observes the start of every candidate's
// analysis in AnalyzeCtx (see SetUnitHook).
var unitHook func(id int32)

// SetUnitHook installs a fault-injection hook observing the start of every
// candidate's analysis in AnalyzeCtx and returns a restore function. Tests
// use it to inject panics and delays into the sweep.
func SetUnitHook(h func(id int32)) (restore func()) {
	old := unitHook
	unitHook = h
	return func() { unitHook = old }
}

// footprint estimates AnalyzeCtx's working set in bytes: a 4-byte
// timestamp per node for the one candidate in flight, and a result row
// (dominated by the InstrReport) per candidate.
func footprint(nodes, candidates int) int64 {
	return 4*int64(nodes) + 256*int64(candidates)
}

// AnalyzeCtx analyzes every candidate instruction of the graph with
// AnalyzeInstr, fanned out across opts.WorkerCount() workers, and
// aggregates the region's report: the columns of the paper's Tables 1–3
// and the per-instruction rows sorted by source line then ID.
//
// Failures follow the production contract. A canceled ctx stops the sweep
// between candidates; opts.Budget.MaxAnalysisBytes below the estimated
// working set fails up front with core.ErrResourceLimit; a candidate that
// panics becomes a *core.UnitError naming it, and its row keeps only its
// identity (ID, Line, AssignID) while every other row is computed. The
// report is nil only when nothing was analyzed.
func AnalyzeCtx(ctx context.Context, g *Graph, opts core.Options) (*core.Report, error) {
	rep := &core.Report{TotalNodes: len(g.Nodes)}
	var ids []int32
	for id := range g.CandidateInstances() {
		ids = append(ids, id)
	}
	if len(ids) == 0 {
		return rep, nil
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	if err := core.Canceled(ctx); err != nil {
		return nil, err
	}
	if max := opts.Budget.MaxAnalysisBytes; max > 0 {
		if need := footprint(len(g.Nodes), len(ids)); need > max {
			return nil, fmt.Errorf("reference: analysis of %d nodes / %d candidates needs ≥ %d bytes, budget %d: %w",
				len(g.Nodes), len(ids), need, max, core.ErrResourceLimit)
		}
	}

	rows := make([]core.InstrReport, len(ids))
	err := core.ParallelFor(ctx, len(ids), opts.WorkerCount(), func(i int) error {
		return core.Guard(i, "candidate", int64(ids[i]), func() error {
			if unitHook != nil {
				unitHook(ids[i])
			}
			rows[i] = AnalyzeInstr(g, ids[i], opts)
			return nil
		})
	})
	for i := range rows {
		if rows[i].Text == "" { // never reached, or poisoned
			in := g.Mod.InstrAt(ids[i])
			rows[i] = core.InstrReport{ID: ids[i], Line: in.Pos.Line, AssignID: in.AssignID}
		}
	}

	var ops, parts, unitOps, unitN, unitSum, nonOps, nonN, nonSum int
	for _, r := range rows {
		ops += r.Instances
		parts += r.Partitions
		unitOps += r.Unit.VecOps
		unitN += r.Unit.Subpartitions
		unitSum += r.Unit.SumSizes
		nonOps += r.NonUnit.VecOps
		nonN += r.NonUnit.Subpartitions
		nonSum += r.NonUnit.SumSizes
	}
	rep.TotalCandidateOps = ops
	if parts > 0 {
		rep.AvgConcurrency = float64(ops) / float64(parts)
	}
	if ops > 0 {
		rep.UnitVecOpsPct = 100 * float64(unitOps) / float64(ops)
		rep.NonUnitVecOpsPct = 100 * float64(nonOps) / float64(ops)
	}
	if unitN > 0 {
		rep.UnitAvgVecSize = float64(unitSum) / float64(unitN)
	}
	if nonN > 0 {
		rep.NonUnitAvgVecSize = float64(nonSum) / float64(nonN)
	}
	sort.SliceStable(rows, func(i, j int) bool {
		if rows[i].Line != rows[j].Line {
			return rows[i].Line < rows[j].Line
		}
		return rows[i].ID < rows[j].ID
	})
	rep.PerInstr = rows
	return rep, err
}

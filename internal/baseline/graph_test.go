package baseline_test

// The graph forms of the two baselines: the reference the streaming
// replay is tested against. They walk a materialized reference.Graph and share
// no code with baseline.Stream.

import (
	"github.com/example/vectrace/internal/ir"
	"github.com/example/vectrace/internal/reference"
)

// kumarTimestamps computes the classic fine-grained parallelism timestamps:
// every node is scheduled one step after the latest of its predecessors,
// regardless of which static instruction it instantiates.
func kumarTimestamps(g *reference.Graph) []int32 {
	ts := make([]int32, len(g.Nodes))
	var preds []int32
	for i := range g.Nodes {
		var max int32
		preds = g.Preds(int32(i), preds[:0])
		for _, p := range preds {
			if ts[p] > max {
				max = ts[p]
			}
		}
		ts[i] = max + 1
	}
	return ts
}

// kumarProfile summarizes the Kumar analysis.
type kumarProfile struct {
	// CriticalPath is the largest timestamp: the DAG's critical path length.
	CriticalPath int32
	// Histogram[t-1] is the number of operations with timestamp t — the
	// "parallelism profile".
	Histogram []int
	// AvgParallelism is nodes / critical path.
	AvgParallelism float64
}

// kumar computes the critical-path parallelism profile of the whole graph.
func kumar(g *reference.Graph) kumarProfile {
	ts := kumarTimestamps(g)
	var cp int32
	for _, t := range ts {
		if t > cp {
			cp = t
		}
	}
	p := kumarProfile{CriticalPath: cp, Histogram: make([]int, cp)}
	for _, t := range ts {
		p.Histogram[t-1]++
	}
	if cp > 0 {
		p.AvgParallelism = float64(len(g.Nodes)) / float64(cp)
	}
	return p
}

// partitionsByTimestamp groups the instances of static instruction id by an
// arbitrary timestamp assignment (Kumar or Larus), for comparison with
// Algorithm 1's partitions. The returned slice is ordered by timestamp.
func partitionsByTimestamp(g *reference.Graph, id int32, ts []int32) [][]int32 {
	byTS := make(map[int32][]int32)
	var order []int32
	for i := range g.Nodes {
		if g.Nodes[i].Instr != id {
			continue
		}
		if _, ok := byTS[ts[i]]; !ok {
			order = append(order, ts[i])
		}
		byTS[ts[i]] = append(byTS[ts[i]], int32(i))
	}
	// Sort timestamps ascending (insertion order may interleave).
	for i := 1; i < len(order); i++ {
		for j := i; j > 0 && order[j] < order[j-1]; j-- {
			order[j], order[j-1] = order[j-1], order[j]
		}
	}
	out := make([][]int32, 0, len(order))
	for _, t := range order {
		out = append(out, byTS[t])
	}
	return out
}

// larusGraphResult summarizes the loop-level analysis of one loop region.
type larusGraphResult struct {
	larusSummary
	// Finish[i] is the completion time of node i under the loop-level
	// execution model (0 for nodes outside any iteration).
	Finish []int32
}

// larus runs the loop-level parallelism model over a region DDG of the
// given loop: iterations of loopID may run concurrently, but each iteration
// executes its statements in program order, stalling at any statement that
// depends on a not-yet-executed statement instance of another iteration.
//
// Iteration boundaries come from the loop's OpLoopIter markers. Nested-loop
// and called-function events belong to the iteration that spawned them (the
// model serializes them within the iteration, exactly how Larus' original
// formulation treats the loop body as a sequential unit).
// Loop-control instructions (a for-loop's init/condition/increment) are
// excluded: at the statement level Larus' model analyzes, loop control is
// implicit in the loop construct, so the induction-variable update chain
// must not serialize the iterations. Dependences reaching a statement
// through control instructions are likewise ignored.
func larus(g *reference.Graph, loopID int) *larusGraphResult {
	res := &larusGraphResult{Finish: make([]int32, len(g.Nodes))}
	iter := -1
	var curTime int32
	var preds []int32
	depth := 0 // nesting depth relative to the analyzed loop's own level
	for i := range g.Nodes {
		in := g.Mod.InstrAt(g.Nodes[i].Instr)
		if in.Op == ir.OpLoopIter && int(in.Loop) == loopID {
			iter++
			res.Iterations++
			curTime = 0
			continue
		}
		// Track call depth only to keep the iteration attribution honest if
		// regions ever nest functions that themselves contain the loop.
		switch in.Op {
		case ir.OpCall:
			depth++
		case ir.OpRet:
			if depth > 0 {
				depth--
			}
		}
		if iter < 0 || in.Ctl {
			continue // loop-header events and loop control are not statements
		}
		switch in.Op {
		case ir.OpLoopBegin, ir.OpLoopEnd, ir.OpLoopIter, ir.OpBr:
			continue // structural markers cost nothing
		}
		start := curTime
		preds = g.Preds(int32(i), preds[:0])
		for _, p := range preds {
			if g.Mod.InstrAt(g.Nodes[p].Instr).Ctl {
				continue // values from loop control are free
			}
			if res.Finish[p] > start {
				start = res.Finish[p]
			}
		}
		res.Finish[i] = start + 1
		curTime = res.Finish[i]
		res.SequentialTime++
		if res.Finish[i] > res.Span {
			res.Span = res.Finish[i]
		}
	}
	return res
}

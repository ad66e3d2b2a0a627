// Package core implements the paper's dynamic vectorization-potential
// analysis: per-static-instruction timestamping of the dynamic
// data-dependence graph (Algorithm 1), partitioning of instances into
// maximal independent sets, subdivision of partitions by contiguous
// (unit/zero-stride) memory access (§3.2), the non-unit constant-stride
// wait-list analysis (§3.3), and the metrics reported in the paper's tables.
//
// Production analysis runs the one-pass stream kernel (stream.go) over a
// region's events. The graph routines here and in report.go — Timestamps,
// Partitions, and the per-candidate AnalyzeCtx sweep, which fans out
// across a bounded worker pool (see parallel.go) — are the tests'
// reference; no shipped command calls them.
package core

import (
	"github.com/example/vectrace/internal/ddg"
)

// Options configures the analysis.
type Options struct {
	// RelaxReductions removes dependence edges due to updates of reduction
	// accumulators (s += expr chains) when timestamping the reduction
	// instruction itself. This is the extension the paper sketches in §3
	// and §4.1 ("our approach could be extended to ignore dependences due
	// to reductions, which would uncover these additional vectorization
	// opportunities").
	RelaxReductions bool
	// Workers bounds the analysis worker pool: the number of candidates
	// timestamped concurrently by the graph reference AnalyzeCtx and, for
	// callers that fan out over regions, the number of regions analyzed at
	// once. 1 forces the sequential path; 0 or negative selects GOMAXPROCS.
	// Output is identical for every setting.
	Workers int
	// Budget bounds the resources the analysis may consume (see Budget).
	// The zero value imposes no analysis bound. On the stream kernel it
	// bounds the live working set (last-writer tables, shadow memory,
	// instance arrays); exceeding it mid-region degrades that region only,
	// with an ErrResourceLimit-wrapped error rather than an allocation past
	// it. The graph reference AnalyzeCtx checks it up front.
	Budget Budget

	// mapShadow selects the stream kernel's map-backed shadow memory
	// instead of the paged shadow: the reference the differential tests
	// compare the paged shadow against (the map still serves
	// out-of-directory addresses in production). Output is byte-identical
	// either way. Only export_test.go sets it.
	mapShadow bool
}

// Timestamps runs Algorithm 1 for static instruction id over the graph and
// returns per-node timestamps.
//
// Nodes are visited in trace order, which is a topological order of the DDG
// (edges always point backwards in time). Each node receives the maximum
// timestamp among its flow predecessors, incremented by one when the node is
// an instance of id. Property 3.1: the resulting timestamp of an instance
// equals the largest number of id-instances on any DDG path leading to it,
// so same-timestamp instances are mutually independent and each instance is
// scheduled as early as possible.
func Timestamps(g *ddg.Graph, id int32, opts Options) []int32 {
	ts := make([]int32, len(g.Nodes))
	var red *reductionInfo
	if opts.RelaxReductions {
		red = detectReduction(g, id)
	}
	fillTimestampsRed(g, id, red, ts)
	return ts
}

// fillTimestampsRed is the per-candidate Algorithm 1 kernel: one linear
// sweep over the trace with the reduction structure (if any) precomputed by
// the caller. The predecessor slots are read inline rather than through
// Preds so the hot loop performs no appends; overflow predecessors come
// from the graph's CSR layout, so consulting them is two slice index reads
// behind one nil check instead of a per-node map lookup.
func fillTimestampsRed(g *ddg.Graph, id int32, red *reductionInfo, ts []int32) {
	nodes := g.Nodes
	csrOff, csrFlat := g.OverflowCSR()
	for i := range nodes {
		nd := &nodes[i]
		isInstance := nd.Instr == id
		// cut is the accumulator-carried predecessor to ignore (NoPred if
		// none): timestamping the reduction instruction itself skips its
		// own chain edge.
		cut := ddg.NoPred
		if red != nil && isInstance {
			if ap, ok := red.accumPred[int32(i)]; ok {
				cut = ap
			}
		}
		var max int32
		if p := nd.P1; p != ddg.NoPred && p != cut && ts[p] > max {
			max = ts[p]
		}
		if p := nd.P2; p != ddg.NoPred && p != cut && ts[p] > max {
			max = ts[p]
		}
		if csrOff != nil {
			for _, p := range csrFlat[csrOff[i]:csrOff[i+1]] {
				if p != cut && ts[p] > max {
					max = ts[p]
				}
			}
		}
		if isInstance {
			max++
		}
		ts[i] = max
	}
}

// Partition groups the dynamic instances of one static instruction that
// share a timestamp. By Property 3.1 the members are mutually independent:
// they may execute concurrently under some dependence-preserving reordering
// of the whole computation.
type Partition struct {
	Timestamp int32
	// Nodes lists member node indices in trace order.
	Nodes []int32
}

// Partitions runs Algorithm 1 for id and groups its instances by timestamp,
// returned in increasing timestamp order.
func Partitions(g *ddg.Graph, id int32, opts Options) []Partition {
	ts := Timestamps(g, id, opts)
	inst := g.Instances(id)
	instTS := make([]int32, len(inst))
	for k, n := range inst {
		instTS[k] = ts[n]
	}
	// A fresh (non-pooled) scratch: the partitions escape to the caller.
	sc := new(instrScratch)
	return sc.partition(inst, instTS)
}

// tupleOf returns the memory-access tuple the stride analysis sorts by:
// (result-store address, operand provenance addresses). Constants,
// register-resident values, and never-stored results contribute the paper's
// artificial address zero (the builder's NoAddr sentinel keeps a genuine
// store to address 0 distinguishable from "never stored").
func tupleOf(nd *ddg.Node) [3]int64 {
	sa := nd.StoreAddr
	if sa == ddg.NoAddr {
		sa = 0
	}
	return [3]int64{sa, nd.OpAddr1, nd.OpAddr2}
}

// elemSizeOf returns the element byte size of the candidate instruction
// (4 for float, 8 for double) — the unit stride.
func elemSizeOf(g *ddg.Graph, id int32) int64 {
	return g.Mod.InstrAt(id).Type.Size()
}

package reference

import (
	"github.com/example/vectrace/internal/ddg"
	"github.com/example/vectrace/internal/ir"
)

// accumulatorEdges identifies the accumulator-carried dependences of static
// instruction id (§4.1's reduction extension). It maps each instance node
// that consumes an earlier instance's value through an accumulator to the
// predecessor carrying it, and returns nil when id shows no reduction
// structure. It handles the two shapes MiniC lowering produces:
//
//	s += expr     →  load s ; add ; store s   (memory round trip)
//	s = s + expr  →  the same
//	register chains within one expression tree (direct instance → instance)
//
// Only floating-point add/sub/mul instructions qualify (div is not
// reassociable, and integer candidates are excluded to match the paper's
// FP reduction discussion), with at least three instances, at least half
// of those after the first carrying an accumulator edge. Absence of a key
// means the instance has no accumulator edge (node 0 is a valid
// predecessor, not a sentinel).
func accumulatorEdges(g *Graph, id int32) map[int32]int32 {
	in := g.Mod.InstrAt(id)
	if in.Op != ir.OpBin || !in.Type.IsFloat() || (in.Bin != ir.AddOp && in.Bin != ir.SubOp && in.Bin != ir.MulOp) {
		return nil
	}
	inst := g.Instances(id)
	if len(inst) < 3 {
		return nil
	}
	edges := make(map[int32]int32)
	var preds []int32
	for _, n := range inst {
		// The first qualifying predecessor in Preds order (P1, P2, then
		// overflow) carries the accumulator.
		preds = g.Preds(n, preds[:0])
		for _, p := range preds {
			if carriesAccum(g, p, id, g.Nodes[n].StoreAddr) {
				edges[n] = p
				break
			}
		}
	}
	if float64(len(edges))/float64(len(inst)-1) < 0.5 {
		return nil
	}
	return edges
}

// carriesAccum reports whether predecessor node p delivers the accumulator
// value into an instance of id: either p is itself an instance of id
// (register-carried accumulation), or p is a load of the SAME location the
// consuming instance stores its result back to (the s += expr round trip,
// where consumerStoreAddr is the instance's result-store address), whose
// producing store wrote an instance of id. The same-location requirement
// distinguishes true reductions from array recurrences like
// B[j][i] = B[j-1][i]·A[i], whose chain walks distinct addresses and is not
// reassociable into a vector reduction.
//
// A consumer that was never stored (ddg.NoAddr) or whose tuple slot carries
// the artificial zero address has no trustworthy round-trip location, so
// only register-carried accumulation can match it.
func carriesAccum(g *Graph, p int32, id int32, consumerStoreAddr int64) bool {
	nd := &g.Nodes[p]
	if nd.Instr == id {
		return true
	}
	if g.Mod.InstrAt(nd.Instr).Op != ir.OpLoad || consumerStoreAddr == ddg.NoAddr || consumerStoreAddr == 0 || nd.Addr != consumerStoreAddr {
		return false
	}
	// A load's memory predecessor is the producing store; find it among the
	// load's preds (the other pred is the address computation), then look
	// for an instance of id among the store's preds (its value producer).
	for _, sp := range g.Preds(p, nil) {
		snd := &g.Nodes[sp]
		if g.Mod.InstrAt(snd.Instr).Op != ir.OpStore || snd.Addr != nd.Addr {
			continue
		}
		for _, vp := range g.Preds(sp, nil) {
			if g.Nodes[vp].Instr == id {
				return true
			}
		}
	}
	return false
}

// IsReduction reports whether the static instruction id behaves as a
// reduction in this execution (≥50% of its instances carry an accumulator
// dependence). The paper uses this to explain why "Percent Packed" can
// exceed "Percent Vec. Ops": icc vectorizes reductions while the base
// analysis treats the chain as sequential.
func IsReduction(g *Graph, id int32) bool {
	return accumulatorEdges(g, id) != nil
}

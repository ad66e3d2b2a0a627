package core

import (
	"github.com/example/vectrace/internal/ddg"
	"github.com/example/vectrace/internal/ir"
)

// reductionInfo describes the reduction structure of one static instruction:
// which of its dynamic instances consume the previous instance's value
// through an accumulator (directly through a register, or through a
// store/load round trip to the same memory location — the s += expr idiom).
type reductionInfo struct {
	// accumPred maps instance node index → the predecessor node index that
	// carries the accumulator value into it. Absence of a key means the
	// instance has no accumulator edge; readers must use the comma-ok form
	// (node index 0 is a valid predecessor, not a sentinel).
	accumPred map[int32]int32
}

// detectReduction inspects the dynamic instances of id and identifies
// accumulator-carried dependences. It handles the two shapes MiniC lowering
// produces for reductions:
//
//	s += expr     →  load s ; add ; store s   (memory round trip)
//	s = s + expr  →  the same
//	register chains within one expression tree (direct instance → instance)
//
// Only add/sub/mul candidates are considered (div is not reassociable).
// Returns nil when the instruction shows no reduction structure (fewer than
// half of its instances carry an accumulator edge).
func detectReduction(g *ddg.Graph, id int32) *reductionInfo {
	return detectReductionInst(g, id, g.Instances(id))
}

// reductionEligible reports whether the static instruction's opcode can
// participate in a reassociable reduction: a floating-point add, sub, or
// mul (div is not reassociable, and integer candidates are excluded to
// match the paper's FP reduction discussion).
func reductionEligible(in *ir.Instr) bool {
	if !(in.Op == ir.OpBin && in.Type.IsFloat()) {
		return false
	}
	return in.Bin == ir.AddOp || in.Bin == ir.SubOp || in.Bin == ir.MulOp
}

// accumPredOf returns the predecessor of node n (a dynamic instance of id)
// that carries the accumulator value into it — checking the predecessor
// slots in Preds order (P1, P2, then overflow) — or NoPred when the
// instance has no accumulator edge. csrOff/csrFlat are the graph's CSR
// overflow layout (nil when no node overflows).
func accumPredOf(g *ddg.Graph, n, id int32, csrOff, csrFlat []int32) int32 {
	nd := &g.Nodes[n]
	storeAddr := nd.StoreAddr
	if p := nd.P1; p != ddg.NoPred && carriesAccum(g, p, id, storeAddr) {
		return p
	}
	if p := nd.P2; p != ddg.NoPred && carriesAccum(g, p, id, storeAddr) {
		return p
	}
	if csrOff != nil {
		for _, p := range csrFlat[csrOff[n]:csrOff[n+1]] {
			if carriesAccum(g, p, id, storeAddr) {
				return p
			}
		}
	}
	return ddg.NoPred
}

// detectReductionInst is detectReduction over a precomputed instance list,
// so callers that already hold instances[id] avoid the full-graph rescan.
func detectReductionInst(g *ddg.Graph, id int32, inst []int32) *reductionInfo {
	if !reductionEligible(g.Mod.InstrAt(id)) {
		return nil
	}
	if len(inst) < 3 {
		return nil
	}
	csrOff, csrFlat := g.OverflowCSR()
	info := &reductionInfo{accumPred: make(map[int32]int32)}
	for _, n := range inst {
		if p := accumPredOf(g, n, id, csrOff, csrFlat); p != ddg.NoPred {
			info.accumPred[n] = p
		}
	}
	if float64(len(info.accumPred))/float64(len(inst)-1) < 0.5 {
		return nil
	}
	return info
}

// carriesAccum reports whether predecessor node p delivers the accumulator
// value into an instance of id: either p is itself an instance of id
// (register-carried accumulation), or p is a load of the SAME location the
// consuming instance stores its result back to (the s += expr round trip,
// where consumerStoreAddr is the instance's result-store address). The
// same-location requirement distinguishes true reductions from array
// recurrences like B[j][i] = B[j-1][i]·A[i], whose chain walks distinct
// addresses and is not reassociable into a vector reduction.
//
// A consumer that was never stored (NoAddr) or whose tuple slot carries the
// artificial zero address has no trustworthy round-trip location, so only
// register-carried accumulation can match it.
func carriesAccum(g *ddg.Graph, p int32, id int32, consumerStoreAddr int64) bool {
	if p == ddg.NoPred {
		return false
	}
	nd := &g.Nodes[p]
	if nd.Instr == id {
		return true
	}
	in := g.Mod.InstrAt(nd.Instr)
	if in.Op != ir.OpLoad || consumerStoreAddr == ddg.NoAddr || consumerStoreAddr == 0 || nd.Addr != consumerStoreAddr {
		return false
	}
	// A load's memory predecessor is the producing store; find it among the
	// load's preds (the other pred is the address computation).
	var preds []int32
	preds = g.Preds(p, preds)
	for _, sp := range preds {
		snd := &g.Nodes[sp]
		sin := g.Mod.InstrAt(snd.Instr)
		if sin.Op != ir.OpStore || snd.Addr != nd.Addr {
			continue
		}
		// The store's value producer is one of its preds that is an
		// instance of id.
		var sPreds []int32
		sPreds = g.Preds(sp, sPreds)
		for _, vp := range sPreds {
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
func IsReduction(g *ddg.Graph, id int32) bool {
	return detectReduction(g, id) != nil
}

package reference

import (
	"fmt"

	"github.com/example/vectrace/internal/core"
)

// VerifyIndependence checks Property 3.1's independence guarantee by brute
// force: no DDG path may connect two instances of id that received the same
// timestamp. It computes full reachability with per-node bitsets, so it is
// O(V²/64) and intended for tests on small graphs.
func VerifyIndependence(g *Graph, id int32, ts []int32) error {
	n := len(g.Nodes)
	words := (n + 63) / 64
	reach := make([]uint64, n*words)
	var preds []int32
	for i := 0; i < n; i++ {
		row := reach[i*words : (i+1)*words]
		preds = g.Preds(int32(i), preds[:0])
		for _, p := range preds {
			prow := reach[int(p)*words : (int(p)+1)*words]
			for w := range row {
				row[w] |= prow[w]
			}
			row[p/64] |= 1 << (uint(p) % 64)
		}
	}
	for i := 0; i < n; i++ {
		if g.Nodes[i].Instr != id {
			continue
		}
		row := reach[i*words : (i+1)*words]
		for j := 0; j < i; j++ {
			if g.Nodes[j].Instr != id || ts[i] != ts[j] {
				continue
			}
			if row[j/64]&(1<<(uint(j)%64)) != 0 {
				return fmt.Errorf("reference: nodes %d and %d share timestamp %d but are connected", j, i, ts[i])
			}
		}
	}
	return nil
}

// VerifyEarliest checks the second half of Property 3.1 by brute force: each
// instance's timestamp must equal the maximum number of id-instances on any
// path into it, plus one for the instance itself. Computed by the same
// longest-path DP as Algorithm 1 but with explicit path reconstruction
// disabled — the check recomputes timestamps with a reference implementation
// that tracks the count over all paths explicitly.
func VerifyEarliest(g *Graph, id int32, ts []int32) error {
	// Reference DP: best[i] = max over paths p ending at i of (number of
	// id-instances on p, excluding i).
	best := make([]int32, len(g.Nodes))
	var preds []int32
	for i := range g.Nodes {
		var m int32
		preds = g.Preds(int32(i), preds[:0])
		for _, p := range preds {
			v := best[p]
			if g.Nodes[p].Instr == id {
				v++
			}
			if v > m {
				m = v
			}
		}
		best[int32(i)] = m
	}
	for i := range g.Nodes {
		if g.Nodes[i].Instr != id {
			continue
		}
		want := best[i] + 1
		if ts[i] != want {
			return fmt.Errorf("reference: node %d has timestamp %d, earliest possible is %d", i, ts[i], want)
		}
	}
	return nil
}

// VerifySubpartitionStrides checks invariant 4 from DESIGN.md: within a
// subpartition, consecutive tuples advance each component by that
// component's fixed stride.
func VerifySubpartitionStrides(g *Graph, sp *core.Subpartition) error {
	if len(sp.Nodes) < 2 {
		return nil
	}
	for i := 1; i < len(sp.Nodes); i++ {
		prev := tupleOf(&g.Nodes[sp.Nodes[i-1]])
		cur := tupleOf(&g.Nodes[sp.Nodes[i]])
		for k := 0; k < 3; k++ {
			if cur[k]-prev[k] != sp.Strides[k] {
				return fmt.Errorf("reference: subpartition member %d: component %d stride %d, want %d",
					i, k, cur[k]-prev[k], sp.Strides[k])
			}
		}
	}
	return nil
}

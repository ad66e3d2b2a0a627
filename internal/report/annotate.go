package report

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"github.com/example/vectrace/internal/core"
	"github.com/example/vectrace/internal/ddg"
	"github.com/example/vectrace/internal/interp"
	"github.com/example/vectrace/internal/ir"
	"github.com/example/vectrace/internal/pipeline"
	"github.com/example/vectrace/internal/profile"
	"github.com/example/vectrace/internal/staticvec"
	"github.com/example/vectrace/internal/trace"
)

// LineAnnotation summarizes the dynamic analysis for one source line that
// contains candidate floating-point operations.
type LineAnnotation struct {
	Line       int
	Instrs     int     // candidate static instructions on the line
	Instances  int     // dynamic candidate operations
	AvgPart    float64 // mean partition size (available concurrency)
	UnitPct    float64 // share of instances in unit-stride groups
	NonUnitPct float64 // share at constant non-unit stride
	Reduction  bool    // any reduction-shaped instruction on the line
}

// AnnotateSource runs the whole-program analysis and attaches per-line
// annotations, the "point the expert at the right region" view of §4.2.
func AnnotateSource(tr *trace.Trace, opts core.Options) ([]LineAnnotation, error) {
	rep, err := pipeline.AnalyzeRegion(context.Background(), tr, ddg.Options{}, opts)
	if err != nil {
		return nil, err
	}

	byLine := make(map[int]*LineAnnotation)
	type acc struct {
		parts, instances, unit, nonUnit int
	}
	accs := make(map[int]*acc)
	for _, irp := range rep.PerInstr {
		la := byLine[irp.Line]
		if la == nil {
			la = &LineAnnotation{Line: irp.Line}
			byLine[irp.Line] = la
			accs[irp.Line] = &acc{}
		}
		a := accs[irp.Line]
		la.Instrs++
		la.Instances += irp.Instances
		a.parts += irp.Partitions
		a.instances += irp.Instances
		a.unit += irp.Unit.VecOps
		a.nonUnit += irp.NonUnit.VecOps
		la.Reduction = la.Reduction || irp.IsReduction
	}
	var out []LineAnnotation
	for line, la := range byLine {
		a := accs[line]
		if a.parts > 0 {
			la.AvgPart = float64(a.instances) / float64(a.parts)
		}
		if a.instances > 0 {
			la.UnitPct = 100 * float64(a.unit) / float64(a.instances)
			la.NonUnitPct = 100 * float64(a.nonUnit) / float64(a.instances)
		}
		out = append(out, *la)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Line < out[j].Line })
	return out, nil
}

// RenderAnnotatedSource interleaves the annotations with the source text.
func RenderAnnotatedSource(src string, anns []LineAnnotation) string {
	byLine := make(map[int]LineAnnotation, len(anns))
	for _, a := range anns {
		byLine[a.Line] = a
	}
	var b strings.Builder
	for i, line := range strings.Split(src, "\n") {
		n := i + 1
		if a, ok := byLine[n]; ok {
			red := ""
			if a.Reduction {
				red = " reduction"
			}
			fmt.Fprintf(&b, "%4d | %-60s  ;; fp×%-7d concur=%-8.1f unit=%5.1f%% nonunit=%5.1f%%%s\n",
				n, line, a.Instances, a.AvgPart, a.UnitPct, a.NonUnitPct, red)
		} else {
			fmt.Fprintf(&b, "%4d | %s\n", n, line)
		}
	}
	return b.String()
}

// LoopTreeNode is one loop in the run-time loop tree with its profile and
// compiler verdict.
type LoopTreeNode struct {
	LoopID   int
	Line     int
	Func     string
	Cycles   float64 // percent of total
	FPOps    int64
	Packed   float64
	Verdict  string
	Children []*LoopTreeNode
}

// LoopTree builds the run-time loop tree for an execution.
func LoopTree(mod *ir.Module, res *interp.Result, verdicts map[int]staticvec.Verdict) []*LoopTreeNode {
	prof := profile.Build(mod, res, verdicts)
	nodes := make(map[int]*LoopTreeNode)
	for i := range mod.Loops {
		lm := &mod.Loops[i]
		n := &LoopTreeNode{LoopID: lm.ID, Line: lm.Line, Func: lm.Func}
		if st := prof.Loop(lm.ID); st != nil {
			n.Cycles = st.PercentCycles
			n.FPOps = st.FPOps
			n.Packed = st.PercentPacked()
		}
		if v, ok := verdicts[lm.ID]; ok {
			if v.Vectorized {
				n.Verdict = "vectorized"
				if v.Reduction {
					n.Verdict = "vectorized (reduction)"
				}
			} else {
				n.Verdict = v.Reason
			}
		}
		nodes[lm.ID] = n
	}
	var roots []*LoopTreeNode
	for i := range mod.Loops {
		id := mod.Loops[i].ID
		parent := profile.RuntimeParent(mod, res, id)
		if parent >= 0 && nodes[parent] != nil {
			nodes[parent].Children = append(nodes[parent].Children, nodes[id])
		} else {
			roots = append(roots, nodes[id])
		}
	}
	sortTree(roots)
	return roots
}

func sortTree(ns []*LoopTreeNode) {
	sort.Slice(ns, func(i, j int) bool { return ns[i].Cycles > ns[j].Cycles })
	for _, n := range ns {
		sortTree(n.Children)
	}
}

// RenderLoopTree renders the tree with indentation.
func RenderLoopTree(roots []*LoopTreeNode) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-36s %8s %10s %8s  %s\n", "loop", "cycles%", "fp-ops", "packed%", "verdict")
	var walk func(n *LoopTreeNode, depth int)
	walk = func(n *LoopTreeNode, depth int) {
		label := fmt.Sprintf("%s%s:%d", strings.Repeat("  ", depth), n.Func, n.Line)
		fmt.Fprintf(&b, "%-36s %7.1f%% %10d %7.1f%%  %s\n",
			label, n.Cycles, n.FPOps, n.Packed, n.Verdict)
		for _, c := range n.Children {
			walk(c, depth+1)
		}
	}
	for _, r := range roots {
		walk(r, 0)
	}
	return b.String()
}

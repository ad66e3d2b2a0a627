// Case study (paper §4.4, Listing 8): data-layout transformation for milc.
//
// The original su3 matrix-vector product walks an array of structures:
// every site's complex components interleave, so independent operations sit
// at stride sizeof(su3_matrix) — the non-unit-stride analysis (§3.3) flags
// exactly this as a data-layout opportunity. Transforming the lattice to a
// structure of arrays exposes unit-stride site-major access that the static
// vectorizer accepts, and the modeled machines show the Table 4 speedup.
package main

import (
	"context"
	"fmt"
	"log"

	"github.com/example/vectrace/internal/core"
	"github.com/example/vectrace/internal/ddg"
	"github.com/example/vectrace/internal/kernels"
	"github.com/example/vectrace/internal/pipeline"
	"github.com/example/vectrace/internal/simd"
	"github.com/example/vectrace/internal/staticvec"
)

func main() {
	cs := kernels.Milc(256)

	// Dynamic analysis of the original AoS loop: the §3.3 signal.
	mod, err := pipeline.Compile(cs.Original.Name+".c", cs.Original.Source)
	if err != nil {
		log.Fatal(err)
	}
	regs, err := pipeline.AnalyzeSourceCtx(context.Background(), cs.Original.Name+".c", cs.Original.Source,
		cs.Original.LineOf("@hot"), 0, ddg.Options{}, core.Options{}, core.Budget{})
	if err != nil {
		log.Fatal(err)
	}
	rep := regs[0].Report
	fmt.Println("original (array-of-structures) lattice:")
	fmt.Printf("  unit-stride vec ops:     %.1f%%\n", rep.UnitVecOpsPct)
	fmt.Printf("  non-unit-stride vec ops: %.1f%% at avg size %.1f  <-- layout-transform signal\n",
		rep.NonUnitVecOpsPct, rep.NonUnitAvgVecSize)

	verdicts := staticvec.AnalyzeModule(mod)
	inner := mod.LoopByLine(cs.Original.LineOf("@inner"))
	fmt.Printf("  compiler verdict:        %s\n\n", verdicts[inner.ID].Reason)

	// The transformed SoA version vectorizes.
	tmod, err := pipeline.Compile(cs.Transformed.Name+".c", cs.Transformed.Source)
	if err != nil {
		log.Fatal(err)
	}
	tverdicts := staticvec.AnalyzeModule(tmod)
	vl := tmod.LoopByLine(cs.Transformed.LineOf("@vec-loop"))
	fmt.Printf("transformed (structure-of-arrays) lattice:\n")
	fmt.Printf("  compiler verdict:        vectorized=%v reduction=%v\n\n",
		tverdicts[vl.ID].Vectorized, tverdicts[vl.ID].Reduction)

	// Table 4 row: modeled speedups.
	ores, err := pipeline.Run(mod, true)
	if err != nil {
		log.Fatal(err)
	}
	tres, err := pipeline.Run(tmod, true)
	if err != nil {
		log.Fatal(err)
	}
	ohot := mod.LoopByLine(cs.Original.LineOf("@hot"))
	thot := tmod.LoopByLine(cs.Transformed.LineOf("@hot"))
	fmt.Println("modeled speedups (original / transformed):")
	for _, m := range simd.Machines() {
		ot := simd.LoopTime(mod, ores, verdicts, m, ohot.ID)
		tt := simd.LoopTime(tmod, tres, tverdicts, m, thot.ID)
		fmt.Printf("  %-22s %.2fx\n", m.Name, ot/tt)
	}
}

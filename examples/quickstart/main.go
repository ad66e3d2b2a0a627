// Quickstart: run the paper's full pipeline on its own running example
// (Listing 1) — compile a MiniC program, execute it under instrumentation,
// characterize each floating-point instruction's SIMD potential as the
// events stream past, and contrast Algorithm 1's partitions with a
// critical-path view.
//
// The program prints the Figure 1 story: statement S1 (a recurrence) is
// serial, while statement S2 — which a critical-path analysis would fragment
// — decomposes into N-1 fully vectorizable partitions of size N.
package main

import (
	"context"
	"fmt"
	"log"

	"github.com/example/vectrace/internal/core"
	"github.com/example/vectrace/internal/ddg"
	"github.com/example/vectrace/internal/kernels"
	"github.com/example/vectrace/internal/pipeline"
	"github.com/example/vectrace/internal/report"
)

func main() {
	const n = 16
	k := kernels.Listing1(n)
	fmt.Println("Analyzing the paper's Listing 1:")
	fmt.Println(k.Source)

	// Compile → execute under instrumentation → characterize each candidate
	// instruction with Algorithm 1 + the stride analyses, in one pass over
	// the live event stream (flow dependences only). Line 0 selects the
	// whole run as one region.
	mod, err := pipeline.Compile(k.Name+".c", k.Source)
	if err != nil {
		log.Fatal(err)
	}
	res, regs, err := pipeline.AnalyzeLoopRegionsLiveCtx(context.Background(), mod, 0, ddg.Options{}, core.Options{}, core.Budget{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("executed %d dynamic instructions (%d floating-point candidates)\n\n",
		res.Steps, res.FPOps)
	fmt.Println("per-instruction vectorization potential:")
	fmt.Print(regs[0].Report.String())

	// Zoom in on S2 and contrast with the Kumar-style critical-path
	// baseline (Figure 1): both group S2's instances by timestamp.
	rows, err := report.Figure1(n)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nS2 (line %d):\n", k.LineOf("@S2"))
	for _, r := range rows {
		switch {
		case r.Statement != "S2":
		case r.Analysis == "Algorithm 1":
			fmt.Printf("  Algorithm 1:   %3d partitions (max size %d) — vector-sized groups\n",
				r.Partitions, r.MaxSize)
		case r.Analysis == "Kumar":
			fmt.Printf("  critical path: %3d partitions — the fragmentation Figure 1(a) shows\n",
				r.Partitions)
		}
	}
}

package core_test

// Benchmarks for the fused tiled Algorithm-1 sweep against the legacy
// per-candidate kernel, across candidate counts. The generated programs pin
// the candidate count exactly: array initialization stores constants (no FP
// arithmetic), so only the measured loops contribute candidate instructions.

import (
	"fmt"
	"strings"
	"testing"

	"github.com/example/vectrace/internal/core"
	"github.com/example/vectrace/internal/ddg"
	"github.com/example/vectrace/internal/pipeline"
)

// benchProgram builds a MiniC program whose trace holds exactly `candidates`
// static FP candidate instructions, each executed ~n times. Statements carry
// two FP ops each (a fused multiply-add shape) except a final single-op
// statement when the count is odd.
func benchProgram(candidates, n int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "double A[%d]; double B[%d]; double D[%d];\n\nvoid main() {\n  int i;\n", n, n, n)
	fmt.Fprintf(&b, "  for (i = 0; i < %d; i++) { A[i] = 1.5; B[i] = 2.5; D[i] = 0.5; }\n", n)
	remaining := candidates
	s := 0
	for remaining > 0 {
		fmt.Fprintf(&b, "  for (i = 1; i < %d; i++) {\n", n)
		if remaining >= 2 {
			// mul + add: two candidates.
			fmt.Fprintf(&b, "    D[i] = A[i] * %d.125 + B[i - 1];\n", s+1)
			remaining -= 2
		} else {
			fmt.Fprintf(&b, "    D[i] = A[i] * %d.125;\n", s+1)
			remaining--
		}
		b.WriteString("  }\n")
		s++
	}
	b.WriteString("  print(D[2]);\n}\n")
	return b.String()
}

// benchGraph compiles and traces a pinned-candidate-count program, failing
// the benchmark if the pin drifted.
func benchGraph(b *testing.B, candidates, n int) *ddg.Graph {
	b.Helper()
	src := benchProgram(candidates, n)
	_, _, tr, err := pipeline.CompileAndTrace("bench.c", src)
	if err != nil {
		b.Fatal(err)
	}
	g, err := ddg.Build(tr)
	if err != nil {
		b.Fatal(err)
	}
	if got := len(g.CandidateInstances()); got != candidates {
		b.Fatalf("program has %d candidates, want %d", got, candidates)
	}
	return g
}

// benchCandidateCounts are the sweep widths the EXPERIMENTS.md comparison
// records: a single candidate (no fusion win available), one full small tile,
// and one full maximum-width tile.
var benchCandidateCounts = []int{1, 8, 64}

// BenchmarkFusedSweep measures Analyze with the fused tiled kernel (the
// default path, auto tile width) at a fixed worker count so the comparison
// against the per-candidate kernel isolates kernel fusion, not scheduling.
func BenchmarkFusedSweep(b *testing.B) {
	for _, c := range benchCandidateCounts {
		b.Run(fmt.Sprintf("candidates=%d", c), func(b *testing.B) {
			g := benchGraph(b, c, 1024)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				core.Analyze(g, core.Options{Workers: 1})
			}
		})
	}
}

// BenchmarkPerCandidateSweep measures the same analysis through the legacy
// per-candidate kernel (core.WithPerCandidate), one Algorithm-1 graph pass per
// candidate.
func BenchmarkPerCandidateSweep(b *testing.B) {
	for _, c := range benchCandidateCounts {
		b.Run(fmt.Sprintf("candidates=%d", c), func(b *testing.B) {
			g := benchGraph(b, c, 1024)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				core.Analyze(g, core.WithPerCandidate(core.Options{Workers: 1}))
			}
		})
	}
}

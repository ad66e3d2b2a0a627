package pipeline_test

// Randomized end-to-end property testing: generate small random (but valid)
// MiniC programs, run the entire pipeline, and check the invariants from
// DESIGN.md §5 on each. This exercises interactions no hand-written case
// covers: nested loops with mixed recurrences, conditional stores, shared
// scalars, and arbitrary affine index offsets.

import (
	"bytes"
	"fmt"
	"testing"

	"github.com/example/vectrace/internal/baseline"
	"github.com/example/vectrace/internal/core"
	"github.com/example/vectrace/internal/opt"
	"github.com/example/vectrace/internal/pipeline"
	"github.com/example/vectrace/internal/reference"
	"github.com/example/vectrace/internal/testprog"
	"github.com/example/vectrace/internal/trace"
)

func TestRandomProgramsInvariants(t *testing.T) {
	const programs = 30
	for seed := int64(0); seed < programs; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			src := testprog.Random(seed)
			mod, res, tr, err := testprog.CompileAndTrace(fmt.Sprintf("rand%d.c", seed), src)
			if err != nil {
				t.Fatalf("pipeline failed:\n%s\nerror: %v", src, err)
			}

			// Determinism.
			_, _, tr2, err := testprog.CompileAndTrace("again.c", src)
			if err != nil {
				t.Fatal(err)
			}
			if len(tr2.Events) != len(tr.Events) {
				t.Fatalf("non-deterministic trace length: %d vs %d", len(tr.Events), len(tr2.Events))
			}

			// Trace length matches executed steps.
			if int64(len(tr.Events)) != res.Steps {
				t.Fatalf("trace %d events, %d steps", len(tr.Events), res.Steps)
			}

			// Codec round trip.
			var buf bytes.Buffer
			if err := trace.Encode(&buf, tr.Events); err != nil {
				t.Fatal(err)
			}
			decoded, err := trace.Decode(&buf)
			if err != nil {
				t.Fatal(err)
			}
			for i := range tr.Events {
				if decoded[i] != tr.Events[i] {
					t.Fatalf("codec mismatch at %d", i)
				}
			}

			// DDG invariants.
			g, err := reference.Build(tr)
			if err != nil {
				t.Fatalf("DDG: %v", err)
			}
			if err := g.CheckTopological(); err != nil {
				t.Fatal(err)
			}

			instances := g.CandidateInstances()
			kumar := baseline.NewKumar(mod)
			kumarTS := make([]int32, len(tr.Events))
			for i, ev := range tr.Events {
				if kumarTS[i], err = kumar.Feed(ev.ID, ev.Addr); err != nil {
					t.Fatal(err)
				}
			}
			small := g.NumNodes() <= 4000
			for id, nodes := range instances {
				ts := reference.Timestamps(g, id, core.Options{})
				parts := reference.Partitions(g, id, core.Options{})

				// Disjoint cover.
				seen := make(map[int32]bool)
				total := 0
				for _, p := range parts {
					for _, n := range p.Nodes {
						if seen[n] {
							t.Fatalf("instr %d: node %d twice", id, n)
						}
						seen[n] = true
					}
					total += len(p.Nodes)
				}
				if total != len(nodes) {
					t.Fatalf("instr %d: cover %d of %d", id, total, len(nodes))
				}

				// Properties 3.1 (quadratic; only on small graphs).
				if small {
					if err := reference.VerifyIndependence(g, id, ts); err != nil {
						t.Fatalf("instr %d: %v\nprogram:\n%s", id, err, src)
					}
					if err := reference.VerifyEarliest(g, id, ts); err != nil {
						t.Fatalf("instr %d: %v", id, err)
					}
				}

				// Property 3.2 against Kumar.
				kparts := map[int32]bool{}
				for _, n := range nodes {
					kparts[kumarTS[n]] = true
				}
				if len(kparts) < len(parts) {
					t.Fatalf("instr %d: Kumar %d partitions < Algorithm 1 %d",
						id, len(kparts), len(parts))
				}

				// Stride subpartition internal consistency.
				elem := mod.InstrAt(id).Type.Size()
				for i := range parts {
					for _, sp := range reference.UnitStrideSubpartitions(g, &parts[i], elem) {
						if err := reference.VerifySubpartitionStrides(g, &sp); err != nil {
							t.Fatalf("instr %d: %v", id, err)
						}
					}
				}
			}

			// Report-level sanity.
			rep := mustAnalyze(t, g, core.Options{})
			if rep.UnitVecOpsPct+rep.NonUnitVecOpsPct > 100.000001 {
				t.Fatalf("vec ops exceed 100%%: %v + %v", rep.UnitVecOpsPct, rep.NonUnitVecOpsPct)
			}
			if rep.TotalCandidateOps != g.NumCandidateOps() {
				t.Fatal("candidate count mismatch")
			}
		})
	}
}

// TestRandomProgramsOptimizerEquivalence: the optimization passes preserve
// outputs on arbitrary generated programs and never add work.
func TestRandomProgramsOptimizerEquivalence(t *testing.T) {
	for seed := int64(200); seed < 220; seed++ {
		src := testprog.Random(seed)
		mod, err := pipeline.Compile("p.c", src)
		if err != nil {
			t.Fatal(err)
		}
		plain, err := pipeline.Run(mod, false)
		if err != nil {
			t.Fatal(err)
		}
		mod2, err := pipeline.Compile("p.c", src)
		if err != nil {
			t.Fatal(err)
		}
		opt.Optimize(mod2)
		if err := mod2.Verify(); err != nil {
			t.Fatalf("seed %d: optimized module invalid: %v\n%s", seed, err, src)
		}
		optimized, err := pipeline.Run(mod2, false)
		if err != nil {
			t.Fatalf("seed %d: optimized run failed: %v", seed, err)
		}
		if len(plain.Output) != len(optimized.Output) {
			t.Fatalf("seed %d: output lengths differ", seed)
		}
		for i := range plain.Output {
			if plain.Output[i] != optimized.Output[i] {
				t.Fatalf("seed %d output %d: %v vs %v\n%s", seed, i, plain.Output[i], optimized.Output[i], src)
			}
		}
		if optimized.Steps > plain.Steps {
			t.Fatalf("seed %d: optimizer increased steps %d → %d", seed, plain.Steps, optimized.Steps)
		}
	}
}

// TestRandomProgramsRelaxationMonotone: relaxing reduction dependences can
// only merge partitions (never split them) for every candidate instruction.
func TestRandomProgramsRelaxationMonotone(t *testing.T) {
	for seed := int64(100); seed < 115; seed++ {
		src := testprog.Random(seed)
		_, _, tr, err := testprog.CompileAndTrace("r.c", src)
		if err != nil {
			t.Fatal(err)
		}
		g, err := reference.Build(tr)
		if err != nil {
			t.Fatal(err)
		}
		for id := range g.CandidateInstances() {
			base := reference.Partitions(g, id, core.Options{})
			relaxed := reference.Partitions(g, id, core.Options{RelaxReductions: true})
			if len(relaxed) > len(base) {
				t.Fatalf("seed %d instr %d: relaxation split partitions (%d -> %d)\n%s",
					seed, id, len(base), len(relaxed), src)
			}
		}
	}
}

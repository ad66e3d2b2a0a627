package core_test

// The paper's own checkers run on the production engine: for each input,
// the stream kernel's per-instance timestamps and its unit- and
// non-unit-stride subpartitions are mapped onto the reference DDG built
// independently from the same events, and checked against Property 3.1
// (earliest timestamps, independence) and the §3.2/§3.3 stride rules with
// reference.VerifyEarliest, VerifyIndependence and
// VerifySubpartitionStrides. Unlike the report differentials, nothing here
// compares the kernel with another implementation of Algorithm 1: the
// checkers recompute longest paths and reachability by brute force.

import (
	"fmt"
	"sync/atomic"
	"testing"

	"github.com/example/vectrace/internal/core"
	"github.com/example/vectrace/internal/ddg"
	"github.com/example/vectrace/internal/kernels"
	"github.com/example/vectrace/internal/reference"
	"github.com/example/vectrace/internal/testprog"
	"github.com/example/vectrace/internal/trace"
)

// maxIndependenceEvents bounds the regions VerifyIndependence runs on: its
// reachability bitsets are O(V²) bits.
const maxIndependenceEvents = 16384

// checkerDopts are the dependence-option variants the checkers run under.
var checkerDopts = []struct {
	name  string
	dopts ddg.Options
}{
	{"default", ddg.Options{}},
	{"anti-output", ddg.Options{IncludeAntiOutput: true}},
	{"control", ddg.Options{IncludeControl: true}},
	{"ints", ddg.Options{CharacterizeInts: true}},
}

// checkKernelAgainstPaper feeds tr through the stream kernel (reduction
// relaxation off) and runs the paper checkers on every candidate. It
// reports whether VerifyIndependence ran.
func checkKernelAgainstPaper(t *testing.T, name string, tr *trace.Trace, dopts ddg.Options) bool {
	t.Helper()
	g, err := reference.BuildOpts(tr, dopts)
	if err != nil {
		t.Fatalf("%s: reference graph: %v", name, err)
	}
	k := core.AcquireStreamKernel(tr.Module, dopts, core.Options{}, nil)
	defer k.Release()
	for _, ev := range tr.Events {
		if err := k.Feed(ev.ID, ev.Addr); err != nil {
			t.Fatalf("%s: feed: %v", name, err)
		}
	}
	independence := len(g.Nodes) <= maxIndependenceEvents
	// One per-node timestamp array serves every candidate: the checkers
	// read only the entries of id's own instances, which are set below.
	ts := make([]int32, len(g.Nodes))
	for id, nodes := range g.CandidateInstances() {
		kts := k.InstanceTimestamps(id)
		if len(kts) != len(nodes) {
			t.Fatalf("%s instr %d: kernel has %d instances, graph %d", name, id, len(kts), len(nodes))
		}
		// The kernel's k-th instance is the graph's k-th instance node.
		for j, n := range nodes {
			ts[n] = kts[j]
		}
		if err := reference.VerifyEarliest(g, id, ts); err != nil {
			t.Fatalf("%s instr %d: %v", name, id, err)
		}
		if independence {
			if err := reference.VerifyIndependence(g, id, ts); err != nil {
				t.Fatalf("%s instr %d: %v", name, id, err)
			}
		}
		elem := tr.Module.InstrAt(id).Type.Size()
		unit, non := k.Subpartitions(id)
		for kind, sps := range map[string][]core.Subpartition{"unit": unit, "non-unit": non} {
			for _, sp := range sps {
				for j, pos := range sp.Nodes {
					sp.Nodes[j] = nodes[pos]
					if ts[sp.Nodes[j]] != ts[sp.Nodes[0]] {
						t.Fatalf("%s instr %d: %s subpartition spans timestamps %d and %d",
							name, id, kind, ts[sp.Nodes[0]], ts[sp.Nodes[j]])
					}
				}
				if err := reference.VerifySubpartitionStrides(g, &sp); err != nil {
					t.Fatalf("%s instr %d: %s: %v", name, id, kind, err)
				}
				if kind == "unit" && len(sp.Nodes) > 1 {
					for _, s := range sp.Strides {
						if s != 0 && s != elem {
							t.Fatalf("%s instr %d: unit-stride subpartition has stride %v (element %d)",
								name, id, sp.Strides, elem)
						}
					}
				}
			}
		}
		if err := checkCover(ts, nodes, unit, non); err != nil {
			t.Fatalf("%s instr %d: %v", name, id, err)
		}
	}
	return independence
}

// checkCover checks that the subpartitions (members as graph nodes) cover
// what §3.2 and §3.3 analyze, once each: every instance of a non-singleton
// partition lies in exactly one unit-stride subpartition, and the
// unit-stride singletons of a partition, when there are two or more, each
// lie in exactly one non-unit-stride subpartition. Singleton partitions
// are serial and in neither.
func checkCover(ts []int32, nodes []int32, unit, non []core.Subpartition) error {
	partSize := make(map[int32]int)
	for _, n := range nodes {
		partSize[ts[n]]++
	}
	inUnit, inNon := make(map[int32]int), make(map[int32]int)
	singles := make(map[int32]int) // unit-stride singletons per timestamp
	for _, sp := range unit {
		for _, n := range sp.Nodes {
			inUnit[n]++
		}
		if len(sp.Nodes) == 1 {
			singles[ts[sp.Nodes[0]]]++
		}
	}
	for _, sp := range non {
		for _, n := range sp.Nodes {
			inNon[n]++
		}
	}
	for _, n := range nodes {
		wantUnit := 0
		if partSize[ts[n]] > 1 {
			wantUnit = 1
		}
		if inUnit[n] != wantUnit {
			return fmt.Errorf("node %d (partition of %d) in %d unit-stride subpartitions, want %d",
				n, partSize[ts[n]], inUnit[n], wantUnit)
		}
	}
	waitlisted := 0
	for _, sp := range unit {
		for _, n := range sp.Nodes {
			wantNon := 0
			if len(sp.Nodes) == 1 && singles[ts[n]] > 1 {
				wantNon = 1
			}
			if inNon[n] != wantNon {
				return fmt.Errorf("node %d in %d non-unit-stride subpartitions, want %d", n, inNon[n], wantNon)
			}
			waitlisted += wantNon
		}
	}
	if len(inNon) != waitlisted {
		return fmt.Errorf("non-unit-stride subpartitions hold %d nodes, want the %d waitlisted singletons", len(inNon), waitlisted)
	}
	return nil
}

// TestPaperCheckersOnStreamKernelRandom runs the checkers over the whole
// trace of random programs under every dependence-option variant.
func TestPaperCheckersOnStreamKernelRandom(t *testing.T) {
	for seed := int64(0); seed < 16; seed++ {
		_, _, tr, err := testprog.CompileAndTrace("rand.c", testprog.Random(seed))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for _, v := range checkerDopts {
			if !checkKernelAgainstPaper(t, fmt.Sprintf("seed %d %s", seed, v.name), tr, v.dopts) {
				t.Fatalf("seed %d: %d events, too many for the independence check", seed, len(tr.Events))
			}
		}
	}
}

// TestPaperCheckersOnStreamKernelTables runs the checkers over the first
// dynamic region of each Table 1–3 kernel's first target loop, under every
// dependence-option variant. VerifyIndependence runs on the regions of at
// most maxIndependenceEvents events.
func TestPaperCheckersOnStreamKernelTables(t *testing.T) {
	type target struct {
		k      kernels.Kernel
		marker string
	}
	var targets []target
	for _, b := range kernels.SPEC() {
		targets = append(targets, target{b.Kernel, b.Targets[0].Marker})
	}
	targets = append(targets, target{kernels.GaussSeidel(32, 2), "@time-loop"}, target{kernels.PDESolver(16, 4), "@grid-j"})
	for _, p := range kernels.UTDSP() {
		targets = append(targets, target{p.Array, "@hot"}, target{p.Pointer, "@hot"})
	}
	if len(targets) != 38 {
		t.Fatalf("%d Table 1–3 kernels, want 38", len(targets))
	}
	var independent atomic.Int32
	t.Run("kernels", func(t *testing.T) {
		for _, tg := range targets {
			t.Run(tg.k.Name, func(t *testing.T) {
				t.Parallel()
				line, err := tg.k.FindLine(tg.marker)
				if err != nil {
					t.Fatal(err)
				}
				_, _, tr, err := testprog.CompileAndTrace(tg.k.Name+".c", tg.k.Source)
				if err != nil {
					t.Fatal(err)
				}
				region, err := testprog.LoopRegion(tr, line, 0)
				if err != nil {
					t.Fatal(err)
				}
				ran := false
				for _, v := range checkerDopts {
					ran = checkKernelAgainstPaper(t, v.name, region, v.dopts)
				}
				if ran {
					independent.Add(1)
				}
			})
		}
	})
	t.Logf("independence checked on %d of %d kernels (regions of ≤ %d events)", independent.Load(), len(targets), maxIndependenceEvents)
}

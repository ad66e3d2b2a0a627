package core_test

import (
	"testing"

	"github.com/example/vectrace/internal/core"
	"github.com/example/vectrace/internal/ir"
	"github.com/example/vectrace/internal/kernels"
	"github.com/example/vectrace/internal/reference"
	"github.com/example/vectrace/internal/testprog"
)

// TestParallelismProfileListing1 checks the Figure 1 data directly: S2's
// profile is flat (N instances at each of N-1 time steps), while S1's is a
// serial staircase (one instance per step).
func TestParallelismProfileListing1(t *testing.T) {
	const n = 16
	k := kernels.Listing1(n)
	_, _, tr, err := testprog.CompileAndTrace(k.Name+".c", k.Source)
	if err != nil {
		t.Fatal(err)
	}
	g, err := reference.Build(tr)
	if err != nil {
		t.Fatal(err)
	}

	instrAt := func(marker string, bin ir.BinOp) int32 {
		line := k.LineOf(marker)
		for _, id := range g.Mod.CandidateIDs(-1) {
			in := g.Mod.InstrAt(id)
			if in.Pos.Line == line && in.Bin == bin {
				return id
			}
		}
		t.Fatalf("no candidate at %s", marker)
		return -1
	}

	s2 := profileOf(g, instrAt("@S2", ir.MulOp), core.Options{})
	if s2.CriticalPath != n-1 {
		t.Fatalf("S2 critical path = %d, want %d", s2.CriticalPath, n-1)
	}
	for tstep, c := range s2.Histogram {
		if c != n {
			t.Fatalf("S2 histogram[%d] = %d, want %d (flat profile)", tstep, c, n)
		}
	}
	if s2.AvgParallelism != float64(n*(n-1))/float64(n-1) {
		t.Fatalf("S2 avg parallelism = %v, want %d", s2.AvgParallelism, n)
	}

	s1 := profileOf(g, instrAt("@S1", ir.MulOp), core.Options{})
	if s1.CriticalPath != n-1 || s1.AvgParallelism != 1 {
		t.Fatalf("S1 profile = %+v, want serial staircase", s1)
	}
	for tstep, c := range s1.Histogram {
		if c != 1 {
			t.Fatalf("S1 histogram[%d] = %d, want 1", tstep, c)
		}
	}
}

// TestProfileMatchesPartitions: the histogram is the partition-size
// sequence.
func TestProfileMatchesPartitions(t *testing.T) {
	k := kernels.GaussSeidel(16, 1)
	_, _, tr, err := testprog.CompileAndTrace(k.Name+".c", k.Source)
	if err != nil {
		t.Fatal(err)
	}
	g, err := reference.Build(tr)
	if err != nil {
		t.Fatal(err)
	}
	for id := range g.CandidateInstances() {
		prof := profileOf(g, id, core.Options{})
		parts := reference.Partitions(g, id, core.Options{})
		total := 0
		for _, p := range parts {
			if prof.Histogram[p.Timestamp-1] != len(p.Nodes) {
				t.Fatalf("instr %d: histogram[%d] = %d, partition has %d",
					id, p.Timestamp-1, prof.Histogram[p.Timestamp-1], len(p.Nodes))
			}
			total += len(p.Nodes)
		}
		sum := 0
		for _, c := range prof.Histogram {
			sum += c
		}
		if sum != total {
			t.Fatalf("instr %d: histogram total %d != instances %d", id, sum, total)
		}
	}
}

// parallelismProfile is the per-instruction analogue of Kumar's parallelism
// profile: Histogram[t-1] counts the instances of the analyzed instruction
// scheduled at timestamp t. The paper's Figure 1 visualizes exactly this
// data for Listing 1's S2.
type parallelismProfile struct {
	Histogram []int
	// CriticalPath is the number of sequential steps (the largest
	// timestamp).
	CriticalPath int32
	// AvgParallelism is instances / critical path.
	AvgParallelism float64
}

// profileOf computes the parallelism profile of static instruction id.
func profileOf(g *reference.Graph, id int32, opts core.Options) parallelismProfile {
	inst := g.Instances(id)
	ts := reference.Timestamps(g, id, opts)
	var max int32
	for _, n := range inst {
		if ts[n] > max {
			max = ts[n]
		}
	}
	p := parallelismProfile{CriticalPath: max, Histogram: make([]int, max)}
	for _, n := range inst {
		if ts[n] > 0 {
			p.Histogram[ts[n]-1]++
		}
	}
	if max > 0 {
		p.AvgParallelism = float64(len(inst)) / float64(max)
	}
	return p
}

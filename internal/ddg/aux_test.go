package ddg_test

// Tests for the derived shared views on the reference DDG
// (reference.Graph): the CSR overflow-predecessor layout and the
// per-instruction instance index. These are built directly on
// hand-assembled graphs (no trace replay) so edge shapes the builder rarely
// produces — overflow lists, empty graphs, sparse instruction ids — are
// covered explicitly.

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"github.com/example/vectrace/internal/reference"
)

// randomGraph assembles a structurally valid graph (edges point backwards)
// with random preds, overflow lists, and instruction ids.
func randomGraph(rng *rand.Rand, n int) *reference.Graph {
	g := &reference.Graph{Nodes: make([]reference.Node, n)}
	for i := range g.Nodes {
		g.Nodes[i].Instr = int32(rng.Intn(7) * 3) // sparse ids: 0,3,...,18
		g.Nodes[i].P1, g.Nodes[i].P2 = reference.NoPred, reference.NoPred
		if i > 0 && rng.Intn(3) > 0 {
			g.Nodes[i].P1 = int32(rng.Intn(i))
		}
		if i > 0 && rng.Intn(3) > 0 {
			g.Nodes[i].P2 = int32(rng.Intn(i))
		}
		if i > 2 && rng.Intn(8) == 0 {
			if g.Extra == nil {
				g.Extra = make(map[int32][]int32)
			}
			for k := 0; k < 1+rng.Intn(3); k++ {
				g.Extra[int32(i)] = append(g.Extra[int32(i)], int32(rng.Intn(i)))
			}
		}
	}
	return g
}

func TestOverflowCSRMatchesExtra(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		g := randomGraph(rng, 1+rng.Intn(60))
		off, flat := g.OverflowCSR()
		if len(g.Extra) == 0 {
			if off != nil || flat != nil {
				t.Fatalf("trial %d: CSR non-nil for graph without overflow", trial)
			}
			continue
		}
		if len(off) != len(g.Nodes)+1 {
			t.Fatalf("trial %d: off has %d entries, want %d", trial, len(off), len(g.Nodes)+1)
		}
		for i := range g.Nodes {
			got := flat[off[i]:off[i+1]]
			want := g.Extra[int32(i)]
			if len(got) != len(want) {
				t.Fatalf("trial %d node %d: CSR row %v, Extra %v", trial, i, got, want)
			}
			for k := range want {
				if got[k] != want[k] {
					t.Fatalf("trial %d node %d: CSR row %v, Extra %v", trial, i, got, want)
				}
			}
		}
	}
}

func TestInstancesMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 50; trial++ {
		g := randomGraph(rng, rng.Intn(80))
		// Naive O(N) rescans, the retired implementation.
		want := make(map[int32][]int32)
		for i := range g.Nodes {
			want[g.Nodes[i].Instr] = append(want[g.Nodes[i].Instr], int32(i))
		}
		for id := int32(-2); id < 25; id++ {
			got := g.Instances(id)
			if !reflect.DeepEqual(got, want[id]) && !(len(got) == 0 && len(want[id]) == 0) {
				t.Fatalf("trial %d: Instances(%d) = %v, want %v", trial, id, got, want[id])
			}
		}
	}
}

func TestInstancesEmptyGraph(t *testing.T) {
	g := &reference.Graph{}
	if got := g.Instances(0); got != nil {
		t.Fatalf("Instances on empty graph = %v", got)
	}
	if off, flat := g.OverflowCSR(); off != nil || flat != nil {
		t.Fatalf("OverflowCSR on empty graph = %v, %v", off, flat)
	}
}

// TestAuxConcurrentAccess hammers the lazy accessor from many goroutines;
// under -race this pins the sync.Once construction contract.
func TestAuxConcurrentAccess(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := randomGraph(rng, 500)
	var wg sync.WaitGroup
	results := make([][]int32, 16)
	for w := 0; w < 16; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			g.OverflowCSR()
			results[w] = g.Instances(3)
		}(w)
	}
	wg.Wait()
	for w := 1; w < 16; w++ {
		if !reflect.DeepEqual(results[0], results[w]) {
			t.Fatalf("goroutine %d saw different instances", w)
		}
	}
}

// TestPredsMatchesCSR: Preds (the append-based view over Extra) and the CSR
// layout must report identical predecessor sequences.
func TestPredsMatchesCSR(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	g := randomGraph(rng, 120)
	off, flat := g.OverflowCSR()
	var buf []int32
	for i := range g.Nodes {
		buf = g.Preds(int32(i), buf[:0])
		var want []int32
		if p := g.Nodes[i].P1; p != reference.NoPred {
			want = append(want, p)
		}
		if p := g.Nodes[i].P2; p != reference.NoPred {
			want = append(want, p)
		}
		if off != nil {
			want = append(want, flat[off[i]:off[i+1]]...)
		}
		if !reflect.DeepEqual(append([]int32(nil), buf...), want) && len(buf)+len(want) > 0 {
			t.Fatalf("node %d: Preds %v, CSR-derived %v", i, buf, want)
		}
	}
}

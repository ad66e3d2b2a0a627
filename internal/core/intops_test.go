package core_test

import (
	"testing"

	"github.com/example/vectrace/internal/core"
	"github.com/example/vectrace/internal/ddg"
	"github.com/example/vectrace/internal/reference"
	"github.com/example/vectrace/internal/testprog"
)

// TestIntegerCharacterization covers the §4 remark that the analysis "can
// be carried out for any type of operations, e.g., integer arithmetic": an
// integer image-scaling kernel shows the same unit-stride independence
// pattern the floating-point version would.
func TestIntegerCharacterization(t *testing.T) {
	src := `
int a[64];
int b[64];
void main() {
  int i;
  for (i = 0; i < 64; i++) { a[i] = i * 3; }
  for (i = 0; i < 64; i++) {
    b[i] = a[i] * 5 + 7;     /* integer saxpy */
  }
  printi(b[63]);
}
`
	_, _, tr, err := testprog.CompileAndTrace("intops.c", src)
	if err != nil {
		t.Fatal(err)
	}

	// Default (paper) mode: no floating-point candidates at all.
	base, err := reference.Build(tr)
	if err != nil {
		t.Fatal(err)
	}
	if base.NumCandidateOps() != 0 {
		t.Fatalf("fp-only candidates = %d, want 0 in an integer kernel", base.NumCandidateOps())
	}

	// Integer characterization: the saxpy's mul/add are analyzed.
	g, err := reference.BuildOpts(tr, ddg.Options{CharacterizeInts: true})
	if err != nil {
		t.Fatal(err)
	}
	if g.NumCandidateOps() == 0 {
		t.Fatal("integer characterization found no candidates")
	}
	rep := mustAnalyze(t, g, core.Options{})
	if rep.TotalCandidateOps < 128 {
		t.Fatalf("candidate ops = %d, want >= 128 (both loops)", rep.TotalCandidateOps)
	}

	// Find the saxpy mul: 64 independent instances with unit-stride
	// operand provenance (int elements are 8 bytes in MiniC).
	found := false
	for _, ir := range rep.PerInstr {
		if ir.Instances == 64 && ir.Partitions == 1 && ir.Unit.VecOps == 64 {
			found = true
		}
	}
	if !found {
		t.Fatalf("no fully unit-vectorizable integer instruction found:\n%s", rep.String())
	}

	// The loop counters also become candidates — and correctly show up as
	// serial chains (one singleton partition per step).
	serial := 0
	for _, ir := range rep.PerInstr {
		if ir.Partitions == ir.Instances && ir.Instances > 1 {
			serial++
		}
	}
	if serial == 0 {
		t.Error("counter increments should appear as serial chains")
	}
}

// TestIntegerProvenanceTuples: int loads feed provenance addresses just
// like floating-point loads.
func TestIntegerProvenanceTuples(t *testing.T) {
	src := `
int a[16];
int b[16];
void main() {
  int i;
  for (i = 0; i < 16; i++) { a[i] = i; }
  for (i = 0; i < 16; i++) { b[i] = a[i] + 1; }
  printi(b[15]);
}
`
	_, _, tr, err := testprog.CompileAndTrace("intprov.c", src)
	if err != nil {
		t.Fatal(err)
	}
	g, err := reference.BuildOpts(tr, ddg.Options{CharacterizeInts: true})
	if err != nil {
		t.Fatal(err)
	}
	// The b[i] = a[i] + 1 add: OpAddr1 = &a[i], StoreAddr = &b[i].
	withProv := 0
	for i := range g.Nodes {
		nd := &g.Nodes[i]
		in := g.Mod.InstrAt(nd.Instr)
		if in.IsIntCandidate() && nd.OpAddr1 != 0 && nd.StoreAddr != 0 {
			withProv++
		}
	}
	if withProv < 16 {
		t.Fatalf("int candidates with full provenance = %d, want >= 16", withProv)
	}
}

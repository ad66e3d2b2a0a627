package ddg_test

// Tests for the NoAddr sentinel: StoreAddr must distinguish "this value was
// never stored" from "this value was stored to address 0" (the artificial
// zero the paper assigns to unstored values lives in the analysis layer,
// not in the graph).

import (
	"testing"

	"github.com/example/vectrace/internal/ddg"
	"github.com/example/vectrace/internal/ir"
	"github.com/example/vectrace/internal/reference"
	"github.com/example/vectrace/internal/testprog"
	"github.com/example/vectrace/internal/trace"
)

// TestNeverStoredCandidateHasNoAddr: an fp add whose result only feeds a
// comparison is never stored, and its nodes must carry NoAddr — not 0,
// which is a legal memory address.
func TestNeverStoredCandidateHasNoAddr(t *testing.T) {
	src := `
double x;
double ga;
double gb;
void main() {
  ga = 2.0;
  gb = 3.0;
  if (ga + gb > 1.0) { x = 1.0; }
}
`
	_, _, tr, err := testprog.CompileAndTrace("cmp.c", src)
	if err != nil {
		t.Fatal(err)
	}
	g, err := reference.Build(tr)
	if err != nil {
		t.Fatal(err)
	}
	instances := g.CandidateInstances()
	if len(instances) == 0 {
		t.Fatal("no candidate instructions")
	}
	for id, nodes := range instances {
		for _, n := range nodes {
			if got := g.Nodes[n].StoreAddr; got != ddg.NoAddr {
				t.Errorf("instr %d node %d: StoreAddr = %d, want NoAddr (value never stored)", id, n, got)
			}
		}
	}
}

// TestStoreToAddressZeroNotConflated doctors a trace so the candidate's
// result is genuinely stored to address 0 and then stored again to a second
// address. The first-store rule must keep StoreAddr at 0; a builder that
// used 0 as the "not yet stored" sentinel would wrongly record the second
// store's address.
func TestStoreToAddressZeroNotConflated(t *testing.T) {
	src := `
double x;
double ga;
double gb;
void main() {
  ga = 2.0;
  gb = 3.0;
  x = ga + gb;
}
`
	_, _, tr, err := testprog.CompileAndTrace("zero.c", src)
	if err != nil {
		t.Fatal(err)
	}
	mod := tr.Module

	// Locate the store of the add's result: the store whose event follows
	// the candidate add in the trace.
	storeIdx := -1
	sawAdd := false
	for i, ev := range tr.Events {
		in := mod.InstrAt(ev.ID)
		if in.IsCandidate() {
			sawAdd = true
		}
		if sawAdd && in.Op == ir.OpStore && in.Type == ir.F64 {
			storeIdx = i
			break
		}
	}
	if storeIdx < 0 {
		t.Fatal("no store of the add result found")
	}
	addr := tr.Events[storeIdx].Addr

	// Remap that address to 0 everywhere, then replay the same static store
	// once more at a fresh address right after the original.
	events := make([]trace.Event, 0, len(tr.Events)+1)
	for i, ev := range tr.Events {
		if ev.Addr == addr {
			ev.Addr = 0
		}
		events = append(events, ev)
		if i == storeIdx {
			events = append(events, trace.Event{ID: ev.ID, Addr: addr + 1024})
		}
	}
	doctored := &trace.Trace{Module: mod, Events: events}

	g, err := reference.Build(doctored)
	if err != nil {
		t.Fatal(err)
	}
	for id, nodes := range g.CandidateInstances() {
		for _, n := range nodes {
			if got := g.Nodes[n].StoreAddr; got != 0 {
				t.Errorf("instr %d node %d: StoreAddr = %d, want 0 (first store wins)", id, n, got)
			}
		}
	}
}

// TestStoreAddrRecordsFirstStore: on the undoctored trace the candidate's
// StoreAddr is the genuine store address.
func TestStoreAddrRecordsFirstStore(t *testing.T) {
	src := `
double x;
void main() {
  double a;
  a = 1.5;
  x = a * 2.0;
}
`
	_, _, tr, err := testprog.CompileAndTrace("first.c", src)
	if err != nil {
		t.Fatal(err)
	}
	mod := tr.Module
	var storeAddr int64 = ddg.NoAddr
	for _, ev := range tr.Events {
		in := mod.InstrAt(ev.ID)
		if in.Op == ir.OpStore && in.Type == ir.F64 {
			storeAddr = ev.Addr // last F64 store is x = ...
		}
	}
	if storeAddr == ddg.NoAddr {
		t.Fatal("no F64 store in trace")
	}
	g, err := reference.Build(tr)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, nodes := range g.CandidateInstances() {
		for _, n := range nodes {
			if g.Nodes[n].StoreAddr == storeAddr {
				found = true
			}
		}
	}
	if !found {
		t.Errorf("no candidate node records the store address %d", storeAddr)
	}
}

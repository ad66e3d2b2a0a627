// Package ddg constructs dynamic data-dependence graphs from execution
// traces.
//
// Following §3 of the paper: each graph node is a dynamic instance of a VIR
// instruction, and edges are flow dependences only — one instance consumed a
// value the other produced, through a virtual register or through memory.
// Anti- and output dependences are excluded ("they do not represent
// essential features of the computation"), and control dependences are
// excluded as well; the builder has an option to add both categories back,
// which leaves every downstream graph analysis unchanged (the paper makes
// the same observation).
//
// Because edges always point backwards in time, trace order is a
// topological order of the DDG, which the timestamping analyses exploit.
//
// The one-pass stream kernel (internal/core.StreamKernel) runs every
// production analysis: the Algorithm-1 sweep, partitioning, stride
// statistics and reduction relaxation work directly off the event stream
// without materializing a graph. The full graph is still built for the
// analyses that genuinely need every node and edge at once — critical-path
// extraction, the Kumar/Larus-style baselines, graph export, the Figure 1–2
// partition listings — and as the independent reference the stream kernel
// is differentially tested against.
package ddg

import (
	"fmt"
	"sync"

	"github.com/example/vectrace/internal/ir"
	"github.com/example/vectrace/internal/trace"
)

// NoPred marks an absent predecessor slot.
const NoPred int32 = -1

// NoAddr marks a value that was never stored to memory. It is distinct from
// address 0 so a genuine first store to address 0 is recorded rather than
// silently dropped from the §3.2 memory tuple; the stride analysis maps
// NoAddr to the paper's artificial zero address when forming tuples.
const NoAddr int64 = -1

// Node is one dynamic instruction instance.
//
// P1 and P2 are the common-case flow predecessors (most instructions consume
// at most two values, and loads additionally depend on the producing store —
// folded into the two slots plus Extra overflow). Addr is the memory address
// touched by loads/stores.
//
// For candidate floating-point instructions, the builder also records the
// instance's memory-access tuple used by the stride analysis (§3.2): OpAddrs
// are the addresses the operand values were loaded from (0 when an operand
// is a constant or was produced by a non-load instruction — the paper's
// "artificial address of zero"), and StoreAddr is the address the result was
// first stored to (NoAddr if never stored).
type Node struct {
	Instr     int32 // static instruction ID
	P1, P2    int32 // flow predecessors, NoPred if absent
	Addr      int64 // load/store address
	StoreAddr int64 // where this node's value was first stored, NoAddr if never
	OpAddr1   int64 // provenance address of operand X
	OpAddr2   int64 // provenance address of operand Y
}

// Graph is a dynamic data-dependence graph over one trace (typically one
// loop sub-trace).
//
// A graph is immutable once built; the analyses additionally derive shared
// read-only views (the CSR overflow-predecessor layout and the
// per-instruction instance index) lazily, behind a race-safe accessor, so a
// Graph must not be copied by value and Nodes/Extra must not be mutated
// after the first analysis touches it.
type Graph struct {
	Mod   *ir.Module
	Nodes []Node
	// Extra holds overflow predecessors (third and beyond), keyed by node
	// index; almost always empty except for call instructions.
	Extra map[int32][]int32
	// IncludesInts records whether the graph was built with integer
	// characterization, extending the candidate set.
	IncludesInts bool

	// auxOnce guards the lazy construction of aux: the first analysis to
	// need a derived view builds every view in one pass, and all later
	// callers (from any goroutine) share the result.
	auxOnce sync.Once
	aux     *graphAux
}

// graphAux holds the derived read-only views of one graph that the analysis
// hot loops share. Everything here is rebuildable from Nodes/Extra; it is
// split out so the views are built at most once per graph (see auxData) and
// so the Graph zero value stays a usable literal in tests.
type graphAux struct {
	// csrOff/csrFlat are the Extra map re-laid-out in compressed-sparse-row
	// form: node n's overflow predecessors are csrFlat[csrOff[n]:csrOff[n+1]],
	// in Preds order. Both are nil when no node overflows (the common case),
	// which the hot loops test with a single nil check instead of a map
	// lookup per node.
	csrOff  []int32
	csrFlat []int32
	// instOff/instFlat index dynamic instances by static instruction:
	// instruction id's instances are instFlat[instOff[id]:instOff[id+1]],
	// in trace order. instOff is dense over [0, maxInstrID+1].
	instOff  []int32
	instFlat []int32
	// numEdges is the graph's dependence-edge count (inline predecessors
	// plus overflow), tallied during the aux build for observability.
	numEdges int64
}

// auxData returns the graph's derived views, building them on first use.
// The build is a single O(nodes + edges) pass; concurrent callers are safe
// and share one result.
func (g *Graph) auxData() *graphAux {
	g.auxOnce.Do(func() { g.aux = buildAux(g) })
	return g.aux
}

// buildAux constructs every derived view in one pass over the graph.
func buildAux(g *Graph) *graphAux {
	a := &graphAux{}
	n := len(g.Nodes)

	// CSR overflow predecessors.
	if len(g.Extra) > 0 {
		a.csrOff = make([]int32, n+1)
		var total int32
		for i := 0; i < n; i++ {
			a.csrOff[i] = total
			total += int32(len(g.Extra[int32(i)]))
		}
		a.csrOff[n] = total
		a.csrFlat = make([]int32, total)
		for k, e := range g.Extra {
			copy(a.csrFlat[a.csrOff[k]:], e)
		}
	}

	// Per-instruction instance index: a counting sort of node indices by
	// static instruction, which preserves trace order within each group.
	maxInstr := int32(-1)
	for i := range g.Nodes {
		if g.Nodes[i].Instr > maxInstr {
			maxInstr = g.Nodes[i].Instr
		}
	}
	a.instOff = make([]int32, maxInstr+2)
	for i := range g.Nodes {
		a.instOff[g.Nodes[i].Instr+1]++
	}
	for k := 1; k < len(a.instOff); k++ {
		a.instOff[k] += a.instOff[k-1]
	}
	a.instFlat = make([]int32, n)
	next := append([]int32(nil), a.instOff[:len(a.instOff)-1]...)
	for i := range g.Nodes {
		id := g.Nodes[i].Instr
		a.instFlat[next[id]] = int32(i)
		next[id]++
		if g.Nodes[i].P1 != NoPred {
			a.numEdges++
		}
		if g.Nodes[i].P2 != NoPred {
			a.numEdges++
		}
	}
	a.numEdges += int64(len(a.csrFlat))
	return a
}

// OverflowCSR returns the graph's overflow predecessors (the Extra map) in
// CSR form: node n's third-and-beyond predecessors are
// flat[off[n]:off[n+1]], in the same order Preds reports them. Both slices
// are nil when no node overflows, so hot loops pay one nil check instead of
// a map lookup per node. Built once per graph on first use; safe for
// concurrent readers; callers must not modify the returned slices.
func (g *Graph) OverflowCSR() (off, flat []int32) {
	a := g.auxData()
	return a.csrOff, a.csrFlat
}

// Instances returns the node indices of static instruction id's dynamic
// instances in trace order — a view into the per-graph instance index,
// built once (one O(nodes) counting pass) and shared by every analysis.
// Callers must not modify the returned slice.
func (g *Graph) Instances(id int32) []int32 {
	a := g.auxData()
	if id < 0 || int(id)+1 >= len(a.instOff) {
		return nil
	}
	lo, hi := a.instOff[id], a.instOff[id+1]
	if lo == hi {
		return nil
	}
	return a.instFlat[lo:hi:hi]
}

// isCandidate applies the graph's candidate policy to a static instruction.
func (g *Graph) isCandidate(in *ir.Instr) bool {
	return in.IsCandidate() || (g.IncludesInts && in.IsIntCandidate())
}

// NumNodes returns the number of dynamic instances in the graph.
func (g *Graph) NumNodes() int { return len(g.Nodes) }

// NumEdges returns the graph's dependence-edge count (flow predecessors,
// inline and overflow). Computed once with the other derived views.
func (g *Graph) NumEdges() int64 { return g.auxData().numEdges }

// Preds appends node n's flow predecessors to dst and returns it.
func (g *Graph) Preds(n int32, dst []int32) []int32 {
	nd := &g.Nodes[n]
	if nd.P1 != NoPred {
		dst = append(dst, nd.P1)
	}
	if nd.P2 != NoPred {
		dst = append(dst, nd.P2)
	}
	if g.Extra != nil {
		dst = append(dst, g.Extra[n]...)
	}
	return dst
}

// Options configures DDG construction.
type Options struct {
	// IncludeAntiOutput adds anti (write-after-read) and output
	// (write-after-write) memory dependences. The paper's analysis runs
	// with these off; the option exists to measure how much parallelism
	// the relaxation buys (scalar/array expansion would remove them).
	IncludeAntiOutput bool
	// IncludeControl adds run-time control dependences: every instruction
	// depends on the most recently executed conditional branch. The paper
	// excludes control dependences "to focus on the data flow and the
	// optimization potential implied by it" but notes the graph analyses
	// are unchanged if they are added; this option demonstrates that, and
	// measures how much potential the control structure hides.
	IncludeControl bool
	// CharacterizeInts extends the candidate set to integer add/sub/mul
	// (§4: the analysis "can be carried out for any type of operations,
	// e.g., integer arithmetic"): their operand provenance is recorded and
	// they appear in CandidateInstances.
	CharacterizeInts bool
}

// Build constructs the DDG for the given trace.
func Build(tr *trace.Trace) (*Graph, error) { return BuildOpts(tr, Options{}) }

// frame is one call-stack entry during trace replay.
type frame struct {
	fn     *ir.Function
	writer []int32 // register → producing node, NoPred if unwritten
	// callerDst is the caller register receiving the return value.
	callerDst ir.Reg
}

// newWriter allocates a register-writer table with all slots unwritten.
func newWriter(n int) []int32 {
	w := make([]int32, n)
	for i := range w {
		w[i] = NoPred
	}
	return w
}

// builder holds the replay state of one BuildOpts run. Hoisting the state
// into a struct keeps the per-event path free of closure allocations: the
// predecessor staging buffer ps is reused for every event, and the only
// steady-state allocations are the graph itself and map growth.
type builder struct {
	g          *Graph
	mod        *ir.Module
	opts       Options
	lastStore  map[int64]int32   // element start address → last storing node
	lastReads  map[int64][]int32 // readers since the last store, for anti deps
	frames     []frame
	ps         []int32 // predecessor staging buffer, reset per event
	lastBranch int32
}

// BuildOpts constructs the DDG with explicit options.
func BuildOpts(tr *trace.Trace, opts Options) (*Graph, error) {
	b := &builder{
		g:    &Graph{Mod: tr.Module, Nodes: make([]Node, len(tr.Events)), IncludesInts: opts.CharacterizeInts},
		mod:  tr.Module,
		opts: opts,
		// Addresses repeat heavily inside loops: presizing to a fraction of
		// the event count avoids rehash-and-copy growth on large traces
		// without overshooting on small regions.
		lastStore:  make(map[int64]int32, len(tr.Events)/4+16),
		lastBranch: NoPred,
	}
	if opts.IncludeAntiOutput {
		b.lastReads = make(map[int64][]int32, len(tr.Events)/4+16)
	}
	for i, ev := range tr.Events {
		if err := b.step(int32(i), ev); err != nil {
			return nil, err
		}
	}
	return b.g, nil
}

// producer resolves an operand to the node that produced its value.
func producer(f *frame, o ir.Operand) int32 {
	if o.Kind == ir.KindReg && int(o.Reg) < len(f.writer) {
		return f.writer[o.Reg]
	}
	return NoPred
}

// loadAddrOf returns the provenance address for an operand: the address of
// the defining load, or 0.
func (b *builder) loadAddrOf(p int32) int64 {
	if p == NoPred {
		return 0
	}
	if b.mod.InstrAt(b.g.Nodes[p].Instr).Op == ir.OpLoad {
		return b.g.Nodes[p].Addr
	}
	return 0
}

// stage appends predecessor candidates to the staging buffer.
func (b *builder) stage(ps ...int32) {
	b.ps = append(b.ps, ps...)
}

// flush assigns the staged predecessors (plus the control edge, when
// enabled) into node n's slots and clears the staging buffer.
func (b *builder) flush(n int32) {
	if b.opts.IncludeControl && b.lastBranch != NoPred {
		b.ps = append(b.ps, b.lastBranch)
	}
	nd := &b.g.Nodes[n]
	slot := 0
	for _, p := range b.ps {
		if p == NoPred {
			continue
		}
		switch slot {
		case 0:
			nd.P1 = p
		case 1:
			nd.P2 = p
		default:
			if b.g.Extra == nil {
				b.g.Extra = make(map[int32][]int32)
			}
			b.g.Extra[n] = append(b.g.Extra[n], p)
		}
		slot++
	}
	b.ps = b.ps[:0]
}

// step replays one trace event into the graph.
func (b *builder) step(n int32, ev trace.Event) error {
	in := b.mod.InstrAt(ev.ID)
	if len(b.frames) == 0 {
		fn := b.mod.FuncOfInstr(ev.ID)
		b.frames = append(b.frames, frame{fn: fn, writer: newWriter(fn.NumRegs), callerDst: ir.RegNone})
	}
	f := &b.frames[len(b.frames)-1]
	if f.fn != b.mod.FuncOfInstr(ev.ID) {
		// A region sliced mid-call or a malformed trace.
		return fmt.Errorf("ddg: event %d (instr %d in %s) does not match current frame %s",
			n, ev.ID, b.mod.FuncOfInstr(ev.ID).Name, f.fn.Name)
	}

	nd := &b.g.Nodes[n]
	nd.Instr = ev.ID
	nd.P1, nd.P2 = NoPred, NoPred
	nd.StoreAddr = NoAddr

	switch in.Op {
	case ir.OpLoad:
		px := producer(f, in.X)
		pm, seen := b.lastStore[ev.Addr]
		if !seen {
			pm = NoPred
		}
		b.stage(px, pm)
		b.flush(n)
		nd.Addr = ev.Addr
		if b.lastReads != nil {
			b.lastReads[ev.Addr] = append(b.lastReads[ev.Addr], n)
		}
		f.writer[in.Dst] = n

	case ir.OpStore:
		px := producer(f, in.X)
		pv := producer(f, in.Y)
		b.stage(px, pv)
		if b.opts.IncludeAntiOutput {
			if prev, ok := b.lastStore[ev.Addr]; ok {
				b.stage(prev) // output dependence
			}
			b.stage(b.lastReads[ev.Addr]...) // anti dependences
			b.lastReads[ev.Addr] = b.lastReads[ev.Addr][:0]
		}
		b.flush(n)
		nd.Addr = ev.Addr
		b.lastStore[ev.Addr] = n
		// Record result-store provenance on the value's producer: the
		// first store of a value defines its memory tuple slot.
		if pv != NoPred && b.g.Nodes[pv].StoreAddr == NoAddr {
			b.g.Nodes[pv].StoreAddr = ev.Addr
		}

	case ir.OpCall:
		callee := b.mod.Funcs[in.Callee]
		argProducers := make([]int32, 0, len(in.Args))
		for _, a := range in.Args {
			p := producer(f, a)
			argProducers = append(argProducers, p)
			b.stage(p)
		}
		b.flush(n)
		w := newWriter(callee.NumRegs)
		copy(w, argProducers)
		b.frames = append(b.frames, frame{fn: callee, writer: w, callerDst: in.Dst})

	case ir.OpRet:
		retProducer := NoPred
		if in.X.Kind == ir.KindReg {
			retProducer = producer(f, in.X)
		}
		b.stage(retProducer)
		b.flush(n)
		callerDst := f.callerDst
		b.frames = b.frames[:len(b.frames)-1]
		if len(b.frames) > 0 && callerDst != ir.RegNone {
			b.frames[len(b.frames)-1].writer[callerDst] = retProducer
		}

	default:
		px := producer(f, in.X)
		py := producer(f, in.Y)
		b.stage(px, py)
		b.flush(n)
		if b.opts.IncludeControl && in.Op == ir.OpCondBr {
			b.lastBranch = n
		}
		if b.g.isCandidate(in) {
			nd.OpAddr1 = b.loadAddrOf(px)
			nd.OpAddr2 = b.loadAddrOf(py)
			if in.X.IsConst() {
				nd.OpAddr1 = 0
			}
			if in.Y.IsConst() {
				nd.OpAddr2 = 0
			}
		}
		if in.Dst != ir.RegNone {
			f.writer[in.Dst] = n
		}
	}
	return nil
}

// CandidateInstances returns, for each candidate static instruction that
// appears in the graph, the node indices of its dynamic instances in trace
// order. The slices are views into the shared instance index and must not
// be modified.
func (g *Graph) CandidateInstances() map[int32][]int32 {
	a := g.auxData()
	out := make(map[int32][]int32)
	for id := 0; id+1 < len(a.instOff); id++ {
		lo, hi := a.instOff[id], a.instOff[id+1]
		if lo == hi {
			continue
		}
		if g.isCandidate(g.Mod.InstrAt(int32(id))) {
			out[int32(id)] = a.instFlat[lo:hi:hi]
		}
	}
	return out
}

// NumCandidateOps returns the total number of dynamic candidate
// floating-point operations in the graph — the denominator of the paper's
// "Percent Vec. Ops" metrics. It sums group sizes in the instance index, so
// the cost is O(static instructions), not O(nodes).
func (g *Graph) NumCandidateOps() int {
	a := g.auxData()
	n := 0
	for id := 0; id+1 < len(a.instOff); id++ {
		sz := int(a.instOff[id+1] - a.instOff[id])
		if sz == 0 {
			continue
		}
		if g.isCandidate(g.Mod.InstrAt(int32(id))) {
			n += sz
		}
	}
	return n
}

// CheckTopological verifies that every dependence edge points backwards in
// the trace (invariant 7 in DESIGN.md). It returns an error naming the first
// violating edge.
func (g *Graph) CheckTopological() error {
	var buf []int32
	for i := range g.Nodes {
		buf = g.Preds(int32(i), buf[:0])
		for _, p := range buf {
			if p >= int32(i) {
				return fmt.Errorf("ddg: edge from node %d to non-earlier node %d", i, p)
			}
		}
	}
	return nil
}

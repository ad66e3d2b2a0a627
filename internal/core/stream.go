package core

// The one-pass stream kernel: Algorithm 1 evaluated directly over the
// region's event stream, without materializing the dynamic
// data-dependence graph first. It is the only Algorithm-1 engine in the
// production packages.
//
// The paper's timestamp recurrence needs only, at each dynamic event, the
// timestamps of that event's flow predecessors. The kernel resolves those
// predecessors through last-writer state — a register→producer table per
// frame and a last-store table per address — and stores, per producer, a
// *timestamp row*: one int32 per active candidate column, instead of a
// node index into an O(events) graph. Peak memory is therefore
// O(live values × active candidates + candidate instances), independent of
// the region's event count:
//
//   - register file: one row per live register per open frame;
//   - shadow memory: one row per address with a live last store (plus, under
//     IncludeAntiOutput, one running-max row over the readers since it);
//   - per candidate column: the per-instance timestamp/tuple arrays the
//     partitioning and stride stages (stride.go) consume.
//
// Columns are assigned lazily, in order of first dynamic appearance, and
// rows are extended lazily: a row written when the width was w' < w
// zero-extends to width w, which is exact — a value produced before a
// candidate's first instance has timestamp 0 for that candidate.
//
// Reduction relaxation (§4.1's extension) is a replay: the first feed
// records, per instance of each reduction-eligible column, which operand
// carries the accumulator; Relax keeps those records for the columns that
// qualify as reductions and resets the region, and the second feed of the
// same events computes those columns' instance timestamps without the
// recorded operand's dependence.
//
// The graph formulation (internal/reference: the DDG, its Algorithm-1
// sweep, and the paper's checkers) is the oracle this kernel is
// differentially tested against; the two share no algorithm code. No
// shipped command builds a graph: the Figure 1–2 partitions come from
// InstanceTimestamps, and the Kumar/Larus baselines replay the stream
// themselves (internal/baseline).

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"

	"github.com/example/vectrace/internal/ddg"
	"github.com/example/vectrace/internal/ir"
	"github.com/example/vectrace/internal/obs"
)

// Nominal live-byte costs of the kernel's unit allocations, used for the
// Budget.MaxAnalysisBytes accounting. Charges follow logical events
// (checkout, instance, frame push), never physical allocation, so whether a
// buffer came from a freelist cannot move the failure point: a budgeted run
// fails at the same event every time.
const (
	streamValBytes      = 56 // one register-file slot descriptor
	streamCellBytes     = 96 // one shadow-memory cell + map entry
	streamInstanceBytes = 48 // one candidate instance (timestamp, tuple, accumulator bits)
)

// streamVal describes the producer of a live value: its timestamp row, the
// producing static instruction, and the provenance the downstream stages
// need (candidate column/instance for store patching, load address and the
// load's producing store for operand tuples and reduction round trips).
// Copies of the descriptor travel through call arguments and return values
// with the value itself.
type streamVal struct {
	row         []int32
	instr       int32 // producing static instruction, -1 when unwritten
	cand        int32 // candidate column of the producer, -1
	inst        int32 // instance index within the column (when cand >= 0)
	storedInstr int32 // for loads: the producing store's value instr, -1
	loadAddr    int64 // for loads: the accessed address
	node        int64 // the producing event's index: the value's identity
	isLoad      bool
}

// streamFrame is one call-stack entry of the replay: the register file of
// producer descriptors.
type streamFrame struct {
	fn        *ir.Function
	callerDst ir.Reg
	regs      []streamVal
}

// candCol is one active candidate column: the per-instance parallel arrays
// Algorithm 1's downstream stages consume, built online.
type candCol struct {
	id     int32
	elig   bool // reductionEligible: FP add/sub/mul
	instTS []int32
	// tup holds each instance's memory tuple; tup[k][0] stays ddg.NoAddr
	// until the instance's first store patches it (mapped to the paper's
	// artificial address 0 only when the stride stage reads it).
	tup [][3]int64
	// acc is each instance's accumulator provenance (eligible columns
	// only), resolved by accumOp: which operands an earlier instance
	// produced itself (accumX, accumY), and which are loads whose last
	// store held an earlier instance's value (loadX, loadY) — the operand's
	// tuple slot holds the load address, and if the instance's first store
	// hits it, the instance accumulates through memory.
	acc []uint8
	// cut is, in a relaxed replay, the accumulator operand (accumOp) each
	// instance's timestamp excludes; empty when the column is not relaxed.
	// Relax fills it and colFor leaves it alone during the replay.
	cut []uint8
}

// The operand bits of candCol.acc; accumX and accumY are also the values
// of candCol.cut.
const (
	accumX uint8 = 1 << iota
	accumY
	loadX
	loadY
)

// accumBits returns the candCol.acc bit of operand producer p for an
// instance of column id: reg when p is an earlier instance, load when p is
// a load whose last store held an instance's value.
func accumBits(p *streamVal, id int32, reg, load uint8) uint8 {
	switch {
	case p == nil:
		return 0
	case p.instr == id:
		return reg
	case p.isLoad && p.storedInstr == id:
		return load
	}
	return 0
}

// accumOp returns the operand that carries the accumulator into instance
// i, or 0: the first of X, Y that is an earlier instance of the column
// (a register chain) or a load of the address the instance's value is
// first stored to, whose last store held an earlier instance's value (the
// s += expr round trip). X is searched before Y.
func (ca *candCol) accumOp(i int) uint8 {
	a, t := ca.acc[i], &ca.tup[i]
	rt := t[0] != ddg.NoAddr && t[0] != 0
	switch {
	case a&accumX != 0 || rt && a&loadX != 0 && t[1] == t[0]:
		return accumX
	case a&accumY != 0 || rt && a&loadY != 0 && t[2] == t[0]:
		return accumY
	}
	return 0
}

// reductionEligible reports whether the static instruction's opcode can
// participate in a reassociable reduction: a floating-point add, sub, or
// mul (div is not reassociable, and integer candidates are excluded to
// match the paper's FP reduction discussion).
func reductionEligible(in *ir.Instr) bool {
	if !(in.Op == ir.OpBin && in.Type.IsFloat()) {
		return false
	}
	return in.Bin == ir.AddOp || in.Bin == ir.SubOp || in.Bin == ir.MulOp
}

// isReduction reports whether the column behaves as a reduction in this
// region: an eligible instruction with at least three instances, at least
// half of those after the first carrying an accumulator.
func (ca *candCol) isReduction() bool {
	n := len(ca.instTS)
	if !ca.elig || n < 3 {
		return false
	}
	accum := 0
	for i := range n {
		if ca.accumOp(i) != 0 {
			accum++
		}
	}
	return float64(accum)/float64(n-1) >= 0.5
}

// shadowCell is the last-writer state of one memory address: the last
// store's timestamp row and value provenance, plus (under IncludeAntiOutput)
// a running elementwise max over the rows of readers since that store and
// their count — enough to reproduce the anti/output edges without keeping
// the reader nodes.
type shadowCell struct {
	row      []int32
	readers  []int32
	valInstr int32
	nReaders int32
	hasStore bool
}

// The paged shadow memory: address → cell resolution through a two-level
// page table instead of a Go map. Level one is a flat page directory
// indexed by addr >> shadowPageShift; level two is a pointer-free slot
// array of (epoch, ref) pairs, where ref-1 indexes the kernel's cells
// slice. A slot is live only when its epoch matches the kernel's current
// region epoch, so resetting the entire shadow between regions is one
// epoch increment — no per-slot clearing — and pages are recycled across
// regions through the directory itself plus a freelist. Addresses outside
// the directory's span (negative, or beyond maxShadowPages pages) fall
// back to the legacy map, which also serves whole when the tests select it
// as the reference (Options.mapShadow).
const (
	shadowPageShift = 10 // 1 KiB of address space per page
	shadowPageSpan  = 1 << shadowPageShift
	shadowPageMask  = shadowPageSpan - 1
	maxShadowPages  = 1 << 16 // directory cap: 64 MiB of address space
)

// shadowSlot is one address's entry in a shadow page: the region epoch the
// entry belongs to and the 1-based index of its cell (0 = empty).
type shadowSlot struct {
	epoch uint32
	ref   uint32
}

// shadowPage is one fixed-span slot array. The header epoch marks the most
// recent region that touched the page, driving the shadow_pages_touched
// counter at page granularity.
type shadowPage struct {
	epoch uint32
	slots [shadowPageSpan]shadowSlot
}

// StreamKernel runs the one-pass analysis of a single region: feed
// the region's events in trace order, then Finish. Kernels are checked out
// of a pool (AcquireStreamKernel / Release) so successive regions reuse the
// last-writer tables, shadow maps, instance arrays, and stride scratch.
//
// A kernel is single-goroutine; concurrency comes from analyzing different
// regions on different kernels.
type StreamKernel struct {
	mod   *ir.Module
	dopts ddg.Options
	opts  Options
	rec   *obs.Recorder

	// Candidate policy cache, rebuilt when the module or the candidate set
	// changes: colOf maps static instruction → active column (-1 when the
	// instruction has no instances yet this region), kmax bounds the width.
	pmod     *ir.Module
	pints    bool
	colOf    []int32
	kmax     int
	rowBytes int64

	cands  []candCol
	frames []streamFrame
	// shadow is the legacy map path: the whole shadow under
	// Options.mapShadow, the out-of-directory overflow otherwise.
	shadow map[int64]*shadowCell
	// The paged shadow: directory, per-region touch list, recycled pages,
	// and the current region epoch (always ≥ 1; 0 marks dead slots).
	pageDir   []*shadowPage
	pageFree  []*shadowPage
	touched   []int32
	epoch     uint32
	cells     []*shadowCell
	cellFree  []*shadowCell
	rowFree   [][]int32
	preds     [][]int32
	args      []streamVal
	pair      [2][]int32
	branch    []int32
	branchSet bool
	order     []int32
	fin       finishScratch

	n         int64 // events fed
	edges     int64 // dependence edges of the region's DDG
	live      int64 // current nominal working set, for Budget accounting
	peak      int64
	peakAddrs int
	err       error
	used      bool
	relax     bool // replaying the region under Relax's cuts
}

// streamKernelPool recycles kernels across regions, workers, and runs.
var streamKernelPool = sync.Pool{New: func() any { return new(StreamKernel) }}

// AcquireStreamKernel checks a one-pass kernel out of the pool, configured
// for one region of a trace of mod under the given dependence and analysis
// options. A non-nil recorder tallies the checkout as a pool hit (recycled
// tables) or miss (fresh allocation). Callers must Release the kernel.
func AcquireStreamKernel(mod *ir.Module, dopts ddg.Options, opts Options, rec *obs.Recorder) *StreamKernel {
	k := streamKernelPool.Get().(*StreamKernel)
	if rec != nil {
		if k.used {
			rec.Add(obs.StreamPoolHits, 1)
		} else {
			rec.Add(obs.StreamPoolMisses, 1)
		}
	}
	k.used = true
	k.mod = mod
	k.dopts = dopts
	k.opts = opts
	k.rec = rec
	if k.pmod != mod || k.pints != dopts.CharacterizeInts {
		k.pmod = mod
		k.pints = dopts.CharacterizeInts
		if cap(k.colOf) < mod.NumInstrs {
			k.colOf = make([]int32, mod.NumInstrs)
		}
		k.colOf = k.colOf[:mod.NumInstrs]
		kmax := 0
		for id := 0; id < mod.NumInstrs; id++ {
			k.colOf[id] = -1
			in := mod.InstrAt(int32(id))
			if in.IsCandidate() || (dopts.CharacterizeInts && in.IsIntCandidate()) {
				kmax++
			}
		}
		k.kmax = kmax
	}
	k.rowBytes = int64(4*k.kmax + 24)
	if k.shadow == nil {
		k.shadow = make(map[int64]*shadowCell, 64)
	}
	if k.epoch == 0 {
		k.epoch = 1 // zeroed slots must never match a live epoch
	}
	return k
}

// Release resets the kernel's per-region state into its freelists and
// returns it to the pool. Safe after an error or a partial feed.
func (k *StreamKernel) Release() {
	k.reset()
	k.relax = false
	k.rec = nil
	streamKernelPool.Put(k)
}

// reset returns the per-region state to its freelists, leaving the
// kernel's configuration (module, options, recorder) and each column's
// cut untouched.
func (k *StreamKernel) reset() {
	for len(k.frames) > 0 {
		k.popFrame()
	}
	for i := range k.cands {
		k.colOf[k.cands[i].id] = -1
	}
	k.cands = k.cands[:0]
	for _, c := range k.cells {
		if c.row != nil {
			k.rowFree = append(k.rowFree, c.row)
			c.row = nil
		}
		if c.readers != nil {
			k.rowFree = append(k.rowFree, c.readers)
			c.readers = nil
		}
	}
	k.cellFree = append(k.cellFree, k.cells...)
	k.cells = k.cells[:0]
	clear(k.shadow)
	// Retire the region's paged-shadow entries wholesale: one epoch bump
	// invalidates every live slot, making reset O(1) regardless of how many
	// pages the region touched. Pages themselves stay hooked in the
	// directory for the next region. On the (astronomically rare) epoch
	// wrap, every retained page is scrubbed so stale epochs cannot collide.
	k.touched = k.touched[:0]
	k.epoch++
	if k.epoch == 0 {
		for _, pg := range k.pageDir {
			if pg != nil {
				*pg = shadowPage{}
			}
		}
		for _, pg := range k.pageFree {
			*pg = shadowPage{}
		}
		k.epoch = 1
	}
	if k.branch != nil {
		k.rowFree = append(k.rowFree, k.branch)
		k.branch = nil
	}
	k.branchSet = false
	k.preds = k.preds[:0]
	k.args = k.args[:0]
	k.pair[0], k.pair[1] = nil, nil
	k.n, k.edges = 0, 0
	k.live, k.peak = 0, 0
	k.peakAddrs = 0
	k.err = nil
}

// Relax prepares the region's relaxed replay once every event has been
// fed (§4.1's extension: dependences through reduction accumulators are
// ignored when timestamping the reduction itself). Each column that
// qualifies as a reduction keeps its instances' accumulator operands, the
// region state resets, and the caller feeds the same events again before
// Finish. Relax returns false, leaving the first feed ready to Finish, when
// the feed failed or no column qualifies — relaxation then changes nothing.
func (k *StreamKernel) Relax() bool {
	if k.err != nil {
		return false
	}
	any := false
	for c := range k.cands {
		ca := &k.cands[c]
		ca.cut = ca.cut[:0]
		if ca.isReduction() {
			for i := range ca.instTS {
				ca.cut = append(ca.cut, ca.accumOp(i))
			}
			any = true
		}
	}
	if any {
		k.reset()
		k.relax = true
	}
	return any
}

// InstanceTimestamps returns the Algorithm-1 timestamps of candidate id's
// instances fed so far, in trace order (nil when id has none). Instances
// sharing a timestamp form one partition. The slice is the kernel's own and is valid
// until the next Feed, Relax or Release.
func (k *StreamKernel) InstanceTimestamps(id int32) []int32 {
	if id < 0 || int(id) >= len(k.colOf) || k.colOf[id] < 0 {
		return nil
	}
	return k.cands[k.colOf[id]].instTS
}

// PeakLiveBytes returns the high-water mark of the kernel's nominal working
// set so far — the quantity Budget.MaxAnalysisBytes bounds.
func (k *StreamKernel) PeakLiveBytes() int64 { return k.peak }

// PeakLiveAddresses returns the high-water mark of distinct addresses live
// in the shadow-memory table so far.
func (k *StreamKernel) PeakLiveAddresses() int { return k.peakAddrs }

// charge adds b nominal bytes to the live working set, latching an
// ErrResourceLimit-wrapped error when a configured budget is exceeded. The
// region degrades; the kernel stops consuming events.
func (k *StreamKernel) charge(b int64) {
	k.live += b
	if k.live > k.peak {
		k.peak = k.live
	}
	if m := k.opts.Budget.MaxAnalysisBytes; m > 0 && k.live > m && k.err == nil {
		k.err = fmt.Errorf("core: one-pass analysis working set %d bytes exceeds budget %d at event %d: %w",
			k.live, m, k.n, ErrResourceLimit)
	}
}

func (k *StreamKernel) credit(b int64) { k.live -= b }

// newRow checks a timestamp row (capacity kmax, logical length 0) out of
// the freelist. Rows are never zeroed: rowMaxInto overwrites every column
// it exposes.
func (k *StreamKernel) newRow() []int32 {
	k.charge(k.rowBytes)
	for n := len(k.rowFree); n > 0; n = len(k.rowFree) {
		r := k.rowFree[n-1]
		k.rowFree[n-1] = nil
		k.rowFree = k.rowFree[:n-1]
		if cap(r) >= k.kmax {
			return r[:0]
		}
	}
	return make([]int32, 0, k.kmax)
}

func (k *StreamKernel) freeRow(r []int32) {
	if r == nil {
		return
	}
	k.rowFree = append(k.rowFree, r)
	k.credit(k.rowBytes)
}

// rowMaxInto fills dst with the elementwise maximum of rows at width w and
// returns dst[:w]. Rows shorter than w contribute zero in the missing
// columns (the lazy-width invariant). dst may alias any source row: every
// column is read from all sources before it is written.
func rowMaxInto(dst []int32, w int, rows [][]int32) []int32 {
	dst = dst[:w]
	switch len(rows) {
	case 0:
		for c := range dst {
			dst[c] = 0
		}
	case 1:
		r := rows[0]
		n := min(len(r), w)
		copy(dst, r[:n])
		for c := n; c < w; c++ {
			dst[c] = 0
		}
	case 2:
		a, b := rows[0], rows[1]
		for c := 0; c < w; c++ {
			var m int32
			if c < len(a) {
				m = a[c]
			}
			if c < len(b) && b[c] > m {
				m = b[c]
			}
			dst[c] = m
		}
	default:
		for c := 0; c < w; c++ {
			var m int32
			for _, r := range rows {
				if c < len(r) && r[c] > m {
					m = r[c]
				}
			}
			dst[c] = m
		}
	}
	return dst
}

// cutMax returns column c's maximum over the predecessors of a relaxed
// instance, leaving out the accumulator operand op names. The cut is by
// producing event: when both operands are the same value (s = s + s)
// neither counts.
func (k *StreamKernel) cutMax(c int32, op uint8, px, py *streamVal) int32 {
	cut := px
	if op == accumY {
		cut = py
	}
	var m int32
	for _, p := range [2]*streamVal{px, py} {
		if p != nil && p.node != cut.node && int(c) < len(p.row) {
			m = max(m, p.row[c])
		}
	}
	if k.dopts.IncludeControl && k.branchSet && int(c) < len(k.branch) {
		m = max(m, k.branch[c])
	}
	return m
}

// val resolves an operand to its live producer descriptor: nil for
// constants, out-of-range registers, and unwritten registers.
func (k *StreamKernel) val(f *streamFrame, o ir.Operand) *streamVal {
	if o.Kind != ir.KindReg || int(o.Reg) >= len(f.regs) {
		return nil
	}
	v := &f.regs[o.Reg]
	if v.instr < 0 {
		return nil
	}
	return v
}

// provAddr returns the operand's provenance address for the stride tuple:
// the defining load's address, or the artificial 0.
func provAddr(v *streamVal, o ir.Operand) int64 {
	if o.IsConst() {
		return 0
	}
	if v != nil && v.isLoad {
		return v.loadAddr
	}
	return 0
}

// stageControl stages the control edge from the most recent conditional
// branch, after the event's data predecessors.
func (k *StreamKernel) stageControl() {
	if k.dopts.IncludeControl && k.branchSet {
		k.preds = append(k.preds, k.branch)
		k.edges++
	}
}

func (k *StreamKernel) pushFrame(fn *ir.Function, callerDst ir.Reg) *streamFrame {
	if len(k.frames) < cap(k.frames) {
		k.frames = k.frames[:len(k.frames)+1]
	} else {
		k.frames = append(k.frames, streamFrame{})
	}
	nf := &k.frames[len(k.frames)-1]
	nf.fn = fn
	nf.callerDst = callerDst
	if cap(nf.regs) < fn.NumRegs {
		nf.regs = make([]streamVal, fn.NumRegs)
	}
	nf.regs = nf.regs[:fn.NumRegs]
	for i := range nf.regs {
		r := nf.regs[i].row
		nf.regs[i] = streamVal{row: r, instr: -1, cand: -1, storedInstr: -1}
	}
	k.charge(streamValBytes * int64(fn.NumRegs))
	return nf
}

func (k *StreamKernel) popFrame() {
	f := &k.frames[len(k.frames)-1]
	for i := range f.regs {
		if r := f.regs[i].row; r != nil {
			k.freeRow(r)
			f.regs[i].row = nil
		}
	}
	k.credit(streamValBytes * int64(len(f.regs)))
	k.frames = k.frames[:len(k.frames)-1]
}

// cellAt resolves an address to its live shadow cell, or nil. The paged
// path is two array indexes and an epoch compare; only out-of-directory
// addresses (and the map reference mode) consult the map.
func (k *StreamKernel) cellAt(addr int64) *shadowCell {
	if k.opts.mapShadow {
		return k.shadow[addr]
	}
	pi := addr >> shadowPageShift
	if uint64(pi) >= maxShadowPages {
		return k.shadow[addr] // negative or beyond the directory span
	}
	if int(pi) >= len(k.pageDir) {
		return nil
	}
	pg := k.pageDir[pi]
	if pg == nil {
		return nil
	}
	s := pg.slots[addr&shadowPageMask]
	if s.epoch != k.epoch || s.ref == 0 {
		return nil
	}
	return k.cells[s.ref-1]
}

// newCell creates (or recycles) the shadow cell for a previously unseen
// address and hooks it into the paged table or the map. The budget charge
// and the live-address peak are identical on both paths — one
// streamCellBytes charge per distinct address per region — so a budgeted
// run fails at the same event regardless of the shadow representation.
func (k *StreamKernel) newCell(addr int64) *shadowCell {
	var c *shadowCell
	if n := len(k.cellFree); n > 0 {
		c = k.cellFree[n-1]
		k.cellFree[n-1] = nil
		k.cellFree = k.cellFree[:n-1]
		c.valInstr = -1
		c.nReaders = 0
		c.hasStore = false
	} else {
		c = &shadowCell{valInstr: -1}
	}
	k.cells = append(k.cells, c)
	if pi := addr >> shadowPageShift; !k.opts.mapShadow && uint64(pi) < maxShadowPages {
		for int(pi) >= len(k.pageDir) {
			k.pageDir = append(k.pageDir, nil)
		}
		pg := k.pageDir[pi]
		if pg == nil {
			if n := len(k.pageFree); n > 0 {
				pg = k.pageFree[n-1]
				k.pageFree[n-1] = nil
				k.pageFree = k.pageFree[:n-1]
			} else {
				pg = new(shadowPage)
			}
			k.pageDir[pi] = pg
		}
		if pg.epoch != k.epoch {
			pg.epoch = k.epoch
			k.touched = append(k.touched, int32(pi))
		}
		pg.slots[addr&shadowPageMask] = shadowSlot{epoch: k.epoch, ref: uint32(len(k.cells))}
	} else {
		k.shadow[addr] = c
	}
	k.charge(streamCellBytes)
	// len(cells) is the count of distinct addresses seen this region on
	// either path, preserving shadow_peak_live_addresses semantics exactly.
	if n := len(k.cells); n > k.peakAddrs {
		k.peakAddrs = n
	}
	return c
}

// colFor returns the active column of candidate id, assigning the next
// column on first appearance. Assigning before the instance's row is
// computed means the new column is inside the current width, where every
// predecessor zero-extends — exactly timestamp 0, the pre-first-instance
// value.
func (k *StreamKernel) colFor(id int32, in *ir.Instr) int32 {
	if c := k.colOf[id]; c >= 0 {
		return c
	}
	c := int32(len(k.cands))
	k.colOf[id] = c
	if len(k.cands) < cap(k.cands) {
		k.cands = k.cands[:c+1]
		ca := &k.cands[c]
		ca.id = id
		ca.elig = reductionEligible(in)
		ca.instTS = ca.instTS[:0]
		ca.tup = ca.tup[:0]
		ca.acc = ca.acc[:0]
		if !k.relax {
			ca.cut = ca.cut[:0]
		}
	} else {
		k.cands = append(k.cands, candCol{id: id, elig: reductionEligible(in)})
	}
	return c
}

// Feed consumes one trace event in trace order. Errors (frame mismatch,
// budget exceeded) latch — subsequent calls return the same error and the
// kernel stops consuming.
func (k *StreamKernel) Feed(id int32, addr int64) error {
	if k.err != nil {
		return k.err
	}
	in := k.mod.InstrAt(id)
	if len(k.frames) == 0 {
		k.pushFrame(k.mod.FuncOfInstr(id), ir.RegNone)
	}
	f := &k.frames[len(k.frames)-1]
	if f.fn != k.mod.FuncOfInstr(id) {
		// A region sliced mid-call or a malformed trace.
		k.err = fmt.Errorf("core: event %d (instr %d in %s) does not match current frame %s",
			k.n, id, k.mod.FuncOfInstr(id).Name, f.fn.Name)
		return k.err
	}
	k.preds = k.preds[:0]

	switch in.Op {
	case ir.OpLoad:
		px := k.val(f, in.X)
		if px != nil {
			k.preds = append(k.preds, px.row)
			k.edges++
		}
		cell := k.cellAt(addr)
		var storedInstr int32 = -1
		if cell != nil && cell.hasStore {
			k.preds = append(k.preds, cell.row)
			k.edges++
			storedInstr = cell.valInstr
		}
		k.stageControl()
		w := len(k.cands)
		dst := &f.regs[in.Dst]
		buf := dst.row
		if buf == nil {
			buf = k.newRow()
		}
		row := rowMaxInto(buf, w, k.preds)
		*dst = streamVal{row: row, instr: id, cand: -1, storedInstr: storedInstr, loadAddr: addr, node: k.n, isLoad: true}
		if k.dopts.IncludeAntiOutput {
			if cell == nil {
				cell = k.newCell(addr)
			}
			if cell.readers == nil {
				cell.readers = k.newRow()
			}
			k.pair[0], k.pair[1] = cell.readers, row
			cell.readers = rowMaxInto(cell.readers, w, k.pair[:])
			cell.nReaders++
		}

	case ir.OpStore:
		px := k.val(f, in.X)
		pv := k.val(f, in.Y)
		if px != nil {
			k.preds = append(k.preds, px.row)
			k.edges++
		}
		if pv != nil {
			k.preds = append(k.preds, pv.row)
			k.edges++
		}
		cell := k.cellAt(addr)
		if k.dopts.IncludeAntiOutput && cell != nil {
			if cell.hasStore {
				k.preds = append(k.preds, cell.row) // output dependence
				k.edges++
			}
			if cell.nReaders > 0 {
				k.preds = append(k.preds, cell.readers) // anti dependences
				k.edges += int64(cell.nReaders)
			}
		}
		k.stageControl()
		// First store of a candidate instance's value defines its memory
		// tuple slot, which also settles a pending reduction round trip.
		if pv != nil && pv.cand >= 0 {
			if t := &k.cands[pv.cand].tup[pv.inst]; t[0] == ddg.NoAddr {
				t[0] = addr
			}
		}
		w := len(k.cands)
		if cell == nil {
			cell = k.newCell(addr)
		}
		buf := cell.row
		if buf == nil {
			buf = k.newRow()
		}
		cell.row = rowMaxInto(buf, w, k.preds)
		cell.hasStore = true
		cell.valInstr = -1
		if pv != nil {
			cell.valInstr = pv.instr
		}
		if cell.nReaders > 0 {
			cell.readers = cell.readers[:0]
			cell.nReaders = 0
		}

	case ir.OpCall:
		callee := k.mod.Funcs[in.Callee]
		// Descriptor copies are collected before pushFrame: the append may
		// move the frame structs, invalidating f and any operand pointers
		// (the row buffers they reference are heap objects and stay valid).
		k.args = k.args[:0]
		for _, a := range in.Args {
			if v := k.val(f, a); v != nil {
				k.args = append(k.args, *v)
				k.edges++
			} else {
				k.args = append(k.args, streamVal{instr: -1, cand: -1, storedInstr: -1})
			}
		}
		if k.dopts.IncludeControl && k.branchSet {
			k.edges++ // the call node's control edge
		}
		// The call node's own row is never consumed (the callee receives
		// the argument producers, the caller the return producer), so it is
		// not computed; its edges are still counted above.
		nf := k.pushFrame(callee, in.Dst)
		m := min(len(k.args), len(nf.regs))
		for i := 0; i < m; i++ {
			av := &k.args[i]
			if av.instr < 0 {
				continue
			}
			dst := &nf.regs[i]
			buf := dst.row
			if buf == nil {
				buf = k.newRow()
			}
			buf = buf[:len(av.row)]
			copy(buf, av.row)
			*dst = streamVal{row: buf, instr: av.instr, cand: av.cand, inst: av.inst,
				storedInstr: av.storedInstr, loadAddr: av.loadAddr, node: av.node, isLoad: av.isLoad}
		}

	case ir.OpRet:
		rp := streamVal{instr: -1, cand: -1, storedInstr: -1}
		if in.X.Kind == ir.KindReg {
			if v := k.val(f, in.X); v != nil {
				rp = *v
				k.edges++
			}
		}
		if k.dopts.IncludeControl && k.branchSet {
			k.edges++ // the ret node's control edge
		}
		callerDst := f.callerDst
		// The return value's row is copied into the caller's slot before
		// popFrame releases the dying frame's buffers.
		if len(k.frames) > 1 && callerDst != ir.RegNone {
			cf := &k.frames[len(k.frames)-2]
			dst := &cf.regs[callerDst]
			if rp.instr >= 0 {
				buf := dst.row
				if buf == nil {
					buf = k.newRow()
				}
				buf = buf[:len(rp.row)]
				copy(buf, rp.row)
				*dst = streamVal{row: buf, instr: rp.instr, cand: rp.cand, inst: rp.inst,
					storedInstr: rp.storedInstr, loadAddr: rp.loadAddr, node: rp.node, isLoad: rp.isLoad}
			} else {
				// A producer-less return clears the caller's register.
				r := dst.row
				*dst = streamVal{row: r, instr: -1, cand: -1, storedInstr: -1}
			}
		}
		k.popFrame()

	default:
		px := k.val(f, in.X)
		py := k.val(f, in.Y)
		if px != nil {
			k.preds = append(k.preds, px.row)
			k.edges++
		}
		if py != nil {
			k.preds = append(k.preds, py.row)
			k.edges++
		}
		k.stageControl()
		isCand := in.IsCandidate() || (k.dopts.CharacterizeInts && in.IsIntCandidate())
		isBranch := k.dopts.IncludeControl && in.Op == ir.OpCondBr
		var col int32 = -1
		if isCand {
			col = k.colFor(id, in)
		}
		// A relaxed instance takes its own column from the predecessors
		// other than its accumulator operand, read before the row is
		// written: the row may reuse an operand's buffer.
		relaxed := int32(-1)
		if col >= 0 {
			if ca := &k.cands[col]; len(ca.cut) > 0 {
				if op := ca.cut[len(ca.instTS)]; op != 0 {
					relaxed = k.cutMax(col, op, px, py)
				}
			}
		}
		w := len(k.cands)
		var row []int32
		transient := false
		if in.Dst != ir.RegNone || isBranch || col >= 0 {
			var buf []int32
			switch {
			case in.Dst != ir.RegNone:
				buf = f.regs[in.Dst].row
			case isBranch:
				buf = k.branch
			default:
				transient = true
			}
			if buf == nil {
				buf = k.newRow()
			}
			row = rowMaxInto(buf, w, k.preds)
		}
		var kidx int32
		if col >= 0 {
			ca := &k.cands[col]
			if relaxed >= 0 {
				row[col] = relaxed
			}
			row[col]++
			kidx = int32(len(ca.instTS))
			ca.instTS = append(ca.instTS, row[col])
			ca.tup = append(ca.tup, [3]int64{ddg.NoAddr, provAddr(px, in.X), provAddr(py, in.Y)})
			if ca.elig {
				ca.acc = append(ca.acc, accumBits(px, ca.id, accumX, loadX)|accumBits(py, ca.id, accumY, loadY))
			}
			k.charge(streamInstanceBytes)
		}
		if isBranch {
			// Set after this node's own row was computed: a conditional
			// branch's control predecessor is the previous branch.
			k.branch = row
			k.branchSet = true
		}
		if in.Dst != ir.RegNone {
			dst := &f.regs[in.Dst]
			*dst = streamVal{row: row, instr: id, cand: col, inst: kidx, storedInstr: -1, node: k.n}
		}
		if transient {
			k.freeRow(row)
		}
	}
	k.n++
	return k.err
}

// Finish completes the region: partitions every candidate column, runs the
// §3.2/§3.3 stride stages over the online tuples, and assembles the Report.
// Each candidate runs under Guard: a panicking candidate becomes a
// *UnitError and keeps only its identity row (ID, Line, AssignID), while
// every other row is computed. Callers Release the kernel afterwards either
// way.
func (k *StreamKernel) Finish(ctx context.Context) (*Report, error) {
	if k.err != nil {
		return nil, k.err
	}
	rep := &Report{TotalNodes: int(k.n)}
	if len(k.cands) == 0 {
		return rep, nil
	}
	if err := Canceled(ctx); err != nil {
		return nil, err
	}
	rec := k.rec
	if rec != nil {
		rec.Add(obs.DDGNodes, k.n)
		rec.Add(obs.DDGEdges, k.edges)
		rec.Add(obs.CandidatesAnalyzed, int64(len(k.cands)))
		rec.Set(obs.BudgetMaxAnalysisBytes, k.opts.Budget.MaxAnalysisBytes)
		rec.Max(obs.AnalysisFootprintBytes, k.peak)
		rec.Max(obs.ShadowPeakLiveAddresses, int64(k.peakAddrs))
		if len(k.touched) > 0 {
			rec.Add(obs.ShadowPagesTouched, int64(len(k.touched)))
		}
		rec.Add(obs.TilesDispatched, 1) // the whole region is one sweep
	}

	k.order = k.order[:0]
	for c := range k.cands {
		k.order = append(k.order, int32(c))
	}
	sort.Slice(k.order, func(i, j int) bool { return k.cands[k.order[i]].id < k.cands[k.order[j]].id })

	var unitErrs []error
	results := make([]InstrReport, len(k.order))
	stride := rec.StartTimer("stride")
	for i, c := range k.order {
		ca := &k.cands[c]
		err := Guard(i, "candidate", int64(ca.id), func() error {
			if analyzeUnitHook != nil {
				analyzeUnitHook(ca.id)
			}
			results[i] = k.finishCand(ca)
			return nil
		})
		if err != nil {
			in := k.mod.InstrAt(ca.id)
			results[i] = InstrReport{ID: ca.id, Line: in.Pos.Line, AssignID: in.AssignID}
			unitErrs = append(unitErrs, err)
		}
	}
	stride.Stop()
	rep.aggregate(results, rec)
	return rep, errors.Join(unitErrs...)
}

// finishCand runs the post-timestamp stages for one candidate column:
// partitioning, the stride stages over the column's tuples, and the
// candidate's report row.
func (k *StreamKernel) finishCand(ca *candCol) InstrReport {
	nInst := len(ca.instTS)
	parts := k.fin.partition(ca.instTS)
	in := k.mod.InstrAt(ca.id)
	rep := InstrReport{
		ID: ca.id, Line: in.Pos.Line, AssignID: in.AssignID, Text: in.String(),
		Instances: nInst, Partitions: len(parts), CriticalPath: slices.Max(ca.instTS),
		IsReduction: ca.isReduction(),
	}
	rep.Unit, rep.NonUnit = k.fin.strideStats(ca.tup, parts, in.Type.Size())
	if len(parts) > 0 {
		rep.AvgPartitionSize = float64(nInst) / float64(len(parts))
	}
	return rep
}

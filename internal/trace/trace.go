// Package trace defines the execution-trace model produced by the
// instrumenting interpreter and consumed by the analysis (the stream
// kernel, and in tests the reference DDG builder).
//
// A trace is the sequence of dynamic instruction instances in execution
// order. Each event records the static instruction ID and, for loads and
// stores, the run-time byte address accessed — precisely the information the
// paper's LLVM instrumentation writes to disk ("run-time instances of static
// instructions, including any relevant run-time data such as memory
// addresses for loads/stores, procedure calls, etc.", §3).
//
// Register and control-flow structure is not recorded per event: it is
// static, so the analysis recovers it by replaying the event stream
// against the module.
//
// Traces exist in two shapes: the in-memory Trace slice, and the VTR1/VTR2
// stream pushed through a RegionFeed, which never materializes a region
// itself (see DESIGN.md §8).
package trace

import (
	"github.com/example/vectrace/internal/ir"
)

// NoAddr marks an event that carries no memory address (everything but
// loads and stores). It is distinct from address 0 so a genuine access to
// byte address 0 survives encoding — the same sentinel discipline ddg.NoAddr
// applies to store provenance.
const NoAddr int64 = -1

// Event is one dynamic instruction instance.
type Event struct {
	// ID is the static instruction ID (module-unique).
	ID int32
	// Addr is the byte address accessed by loads/stores, NoAddr otherwise.
	Addr int64
}

// HasAddr reports whether the event carries a memory address.
func (e Event) HasAddr() bool { return e.Addr != NoAddr }

// Trace is an in-memory execution trace together with the module it was
// produced from.
type Trace struct {
	Module *ir.Module
	Events []Event
}

// Len returns the number of dynamic instruction instances.
func (t *Trace) Len() int { return len(t.Events) }

// Region is a contiguous sub-trace corresponding to one dynamic execution of
// a source loop, from loop entry to loop exit — the unit the paper analyzes
// ("A subtrace was started upon loop entry and terminated upon loop exit").
type Region struct {
	LoopID int
	// Start and End delimit the half-open event range [Start, End) in the
	// parent trace, excluding the loop.begin/loop.end marker events.
	Start, End int
}

// Events returns the region's event slice within t.
func (t *Trace) RegionEvents(r Region) []Event {
	return t.Events[r.Start:r.End]
}

// openRegion is one entry of the region tracker's open-loop stack.
type openRegion struct {
	loopID int
	start  int
	depth  int
}

// regionTracker is the shared state machine behind the in-memory Regions
// sweep and the streaming RegionFeed: fed one event at a time, it reports
// the dynamic regions of the target loop as they close, with call-stack
// awareness (a return instruction closes any loops opened within the
// returning frame).
type regionTracker struct {
	target int
	stack  []openRegion
	depth  int
	closed []Region // scratch, reused across steps
}

// step feeds the event at absolute index i and returns the target-loop
// regions it closes, in close order. The returned slice is reused by the
// next call.
func (t *regionTracker) step(i int, in *ir.Instr) []Region {
	t.closed = t.closed[:0]
	switch in.Op {
	case ir.OpLoopBegin:
		t.stack = append(t.stack, openRegion{loopID: int(in.Loop), start: i + 1, depth: t.depth})
	case ir.OpLoopEnd:
		if len(t.stack) > 0 {
			o := t.stack[len(t.stack)-1]
			t.stack = t.stack[:len(t.stack)-1]
			if o.loopID == t.target {
				t.closed = append(t.closed, Region{LoopID: t.target, Start: o.start, End: i})
			}
		}
	case ir.OpCall:
		t.depth++
	case ir.OpRet:
		// Close loops opened in the returning frame (early return from
		// inside a loop never emits its loop.end marker).
		t.closeTo(t.depth, i)
		if t.depth > 0 {
			t.depth--
		}
	}
	return t.closed
}

// finish closes every still-open region at end-of-trace index n and returns
// them in close order.
func (t *regionTracker) finish(n int) []Region {
	t.closed = t.closed[:0]
	t.closeTo(0, n)
	return t.closed
}

// closeTo pops stack entries at or above minDepth, recording target regions.
func (t *regionTracker) closeTo(minDepth, endIdx int) {
	for len(t.stack) > 0 && t.stack[len(t.stack)-1].depth >= minDepth {
		o := t.stack[len(t.stack)-1]
		t.stack = t.stack[:len(t.stack)-1]
		if o.loopID == t.target {
			t.closed = append(t.closed, Region{LoopID: t.target, Start: o.start, End: endIdx})
		}
	}
}

// Regions scans the trace and returns every dynamic region of the given
// source loop, in execution order of region close. Loop markers are matched
// with awareness of the call stack: a return instruction closes any loops
// opened within the returning frame.
func (t *Trace) Regions(loopID int) []Region {
	var out []Region
	tk := regionTracker{target: loopID}
	m := t.Module
	for i, ev := range t.Events {
		out = append(out, tk.step(i, m.InstrAt(ev.ID))...)
	}
	out = append(out, tk.finish(len(t.Events))...)
	return out
}

// Slice returns a new Trace containing only the given region's events (the
// module is shared): the held form of one region's events.
func (t *Trace) Slice(r Region) *Trace {
	return &Trace{Module: t.Module, Events: t.Events[r.Start:r.End]}
}

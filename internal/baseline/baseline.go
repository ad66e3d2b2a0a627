// Package baseline implements the two prior dynamic-analysis styles the
// paper contrasts with in §2, over the same flow dependences as the DDG:
//
//   - Kumar-style fine-grained critical-path analysis [Kumar 1988]: every
//     dynamic operation is timestamped one past the maximum of its inputs'
//     timestamps, yielding a parallelism profile and the DDG critical path.
//     Same-timestamp instances of a statement form that method's partitions
//     — provably never larger than Algorithm 1's (Figure 1).
//
//   - Larus-style loop-level parallelism [Larus 1993]: statements within a
//     loop iteration execute sequentially; an iteration stalls only when it
//     reaches a statement that depends on a statement instance of a later-
//     started iteration that has not yet executed. Concurrency exists only
//     across iterations of the analyzed loop (Figure 2).
package baseline

import (
	"fmt"

	"github.com/example/vectrace/internal/ir"
	"github.com/example/vectrace/internal/trace"
)

// Stream computes either baseline over an event stream in one forward
// pass, without a graph. Both are forward recurrences in trace order over
// flow predecessors only, so the replay needs the last-writer state a DDG
// builder keeps and nothing else: per frame an int32 register file holding
// each register producer's time, and an int32 map holding the time of each
// address's last store. Memory is O(live registers + distinct addresses),
// independent of the number of events.
//
// A producer-less operand contributes time 0, which is exact for both
// baselines: every Kumar timestamp is at least 1, and a Larus finish time
// is never below the iteration clock it is compared against.
//
// A Stream is also the trace.RegionSink of one region: Event feeds it,
// and the optional hooks see each event's time and the region's close.
type Stream struct {
	// OnTime, when set, receives each event fed through Event with its
	// time; OnClose receives the region's close-order index.
	OnTime  func(id int32, t int32)
	OnClose func(index int)

	mod    *ir.Module
	loopID int // Larus' analyzed loop; -1 selects Kumar
	frames []streamFrame
	store  map[int64]int32
	args   []int32 // call-argument scratch
	err    error

	nodes int64
	span  int32
	// The Larus iteration clock.
	inIter bool
	cur    int32
}

type streamFrame struct {
	fn        *ir.Function
	regs      []int32
	callerDst ir.Reg
}

// NewKumar returns a stream computing Kumar's timestamps: every event is
// scheduled one step after the latest of its flow predecessors.
func NewKumar(mod *ir.Module) *Stream { return NewLarus(mod, -1) }

// NewLarus returns a stream computing Larus' loop-level finish times for
// the given loop: iterations of loopID may run concurrently, but each
// executes its statements in program order, stalling at any statement
// that depends on a not-yet-executed statement instance of another
// iteration. Iterations start at the loop's OpLoopIter markers; events of
// nested loops and callees belong to the iteration that spawned them.
// Loop-control instructions (a for-loop's init, condition and increment)
// are not statements and their values are free, so the induction chain
// does not serialize the iterations. A negative loopID selects Kumar's
// rule instead.
func NewLarus(mod *ir.Module, loopID int) *Stream {
	return &Stream{mod: mod, loopID: loopID, store: make(map[int64]int32)}
}

// Feed consumes the next event in trace order and returns its time: the
// Kumar timestamp, or the Larus finish time (0 for events outside any
// iteration, loop control, and structural markers). A region sliced
// mid-call is reported as an error, which latches.
func (s *Stream) Feed(id int32, addr int64) (int32, error) {
	if s.err != nil {
		return 0, s.err
	}
	in := s.mod.InstrAt(id)
	fn := s.mod.FuncOfInstr(id)
	if len(s.frames) == 0 {
		s.push(fn, ir.RegNone)
	}
	f := &s.frames[len(s.frames)-1]
	if f.fn != fn {
		s.err = fmt.Errorf("baseline: event %d (instr %d in %s) does not match current frame %s",
			s.nodes, id, fn.Name, f.fn.Name)
		return 0, s.err
	}
	var pred int32 // the latest flow predecessor's time
	switch in.Op {
	case ir.OpLoad:
		pred = max(reg(f, in.X), s.store[addr])
	case ir.OpCall:
		s.args = s.args[:0]
		for _, a := range in.Args {
			s.args = append(s.args, reg(f, a))
			pred = max(pred, reg(f, a))
		}
	case ir.OpRet:
		if in.X.Kind == ir.KindReg {
			pred = reg(f, in.X)
		}
	default:
		pred = max(reg(f, in.X), reg(f, in.Y))
	}
	out := s.time(in, pred)
	switch {
	case in.Op == ir.OpStore:
		s.store[addr] = out
	case in.Op == ir.OpCall:
		// The callee's parameters are the arguments' producers, not the
		// call: the call is a node of its own whose time nobody consumes.
		copy(s.push(s.mod.Funcs[in.Callee], in.Dst).regs, s.args)
	case in.Op == ir.OpRet:
		// The caller receives the returned value's producer; a return
		// without one clears the caller's register.
		dst := f.callerDst
		s.frames = s.frames[:len(s.frames)-1]
		if len(s.frames) > 0 && dst != ir.RegNone {
			s.frames[len(s.frames)-1].regs[dst] = pred
		}
	case in.Dst != ir.RegNone:
		f.regs[in.Dst] = out
	}
	s.nodes++
	s.span = max(s.span, out)
	return out, nil
}

// Event feeds one region event (trace.RegionSink); a failure latches and
// is reported by Err.
func (s *Stream) Event(ev trace.Event) {
	if t, err := s.Feed(ev.ID, ev.Addr); err == nil && s.OnTime != nil {
		s.OnTime(ev.ID, t)
	}
}

// Close ends the region (trace.RegionSink).
func (s *Stream) Close(index int) {
	if s.OnClose != nil {
		s.OnClose(index)
	}
}

// Abort drops a region that never closed (trace.RegionSink).
func (s *Stream) Abort() {}

// Err returns the error that stopped the stream, if any.
func (s *Stream) Err() error { return s.err }

// time applies the baseline's rule to one event whose latest flow
// predecessor has time pred.
func (s *Stream) time(in *ir.Instr, pred int32) int32 {
	if s.loopID < 0 {
		return pred + 1
	}
	switch {
	case in.Op == ir.OpLoopIter && int(in.Loop) == s.loopID:
		s.inIter = true
		s.cur = 0
		return 0
	case !s.inIter || in.Ctl:
		// Loop-header events and loop control are not statements; a
		// value produced by loop control is free (time 0).
		return 0
	}
	switch in.Op {
	case ir.OpLoopBegin, ir.OpLoopEnd, ir.OpLoopIter, ir.OpBr:
		return 0 // structural markers cost nothing
	}
	s.cur = max(s.cur, pred) + 1
	return s.cur
}

// push opens a frame for fn with every register unwritten.
func (s *Stream) push(fn *ir.Function, callerDst ir.Reg) *streamFrame {
	s.frames = append(s.frames, streamFrame{fn: fn, regs: make([]int32, fn.NumRegs), callerDst: callerDst})
	return &s.frames[len(s.frames)-1]
}

// reg returns the time of an operand's producer, 0 for constants and
// unwritten registers.
func reg(f *streamFrame, o ir.Operand) int32 {
	if o.Kind == ir.KindReg && int(o.Reg) < len(f.regs) {
		return f.regs[o.Reg]
	}
	return 0
}

// CriticalPath returns the largest time so far: Kumar's critical path, or
// the Larus span (the loop's parallel execution time).
func (s *Stream) CriticalPath() int32 { return s.span }

// AvgParallelism returns Kumar's average parallelism so far: events per
// critical-path step.
func (s *Stream) AvgParallelism() float64 {
	if s.span == 0 {
		return 0
	}
	return float64(s.nodes) / float64(s.span)
}

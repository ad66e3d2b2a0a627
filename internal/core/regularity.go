package core

import (
	"encoding/binary"
	"hash"
	"hash/fnv"
	"sort"

	"github.com/example/vectrace/internal/ir"
	"github.com/example/vectrace/internal/trace"
)

// Regularity characterizes how structured a loop's control flow is — the
// refinement the paper proposes as future work in §4.4: "distinguish
// computations with irregular data-dependent control flow from ones where
// the control flow is more structured and vectorization potential is more
// likely to be actually realizable through code transformations."
//
// Each iteration of the loop is reduced to its control signature: the
// sequence of static instructions it executed (including work in nested
// loops and callees). A loop whose iterations all share one signature — a
// clean streaming kernel — is perfectly regular; a worklist algorithm like
// the povray bounding-box traversal scatters across many signatures.
type Regularity struct {
	// Iterations is the number of dynamic iterations observed, across all
	// dynamic executions of the loop.
	Iterations int
	// DistinctShapes is the number of distinct control signatures.
	DistinctShapes int
	// ModalFraction is the fraction of iterations following the most
	// common signature: 1.0 means fully structured control flow.
	ModalFraction float64
	// ShapeFractions lists the signature frequencies in decreasing order
	// (at most the top 8), for reporting.
	ShapeFractions []float64
}

// Realizable applies the paper's intended use: potential in a loop with
// highly regular control flow is likely exploitable by code transformation,
// while an irregular loop needs algorithm-level work by a domain expert.
func (r Regularity) Realizable() bool { return r.ModalFraction >= 0.75 }

// RegularityCounter computes the control signature distribution of a
// source loop over every dynamic execution, one region at a time: each
// region's events flow through a sink from Sink (a trace.RegionSink, so a
// region feed drives it live), and Result summarizes the iterations seen.
// Memory is one count per distinct signature, independent of trace length.
type RegularityCounter struct {
	mod    *ir.Module
	loopID int
	counts map[uint64]int
	total  int
}

// NewRegularityCounter returns a counter for the given loop of mod.
func NewRegularityCounter(mod *ir.Module, loopID int) *RegularityCounter {
	return &RegularityCounter{mod: mod, loopID: loopID, counts: make(map[uint64]int)}
}

// Sink returns the sink for one more region of the loop. Iterations
// count as the region's events arrive; the last one when it closes.
func (c *RegularityCounter) Sink() trace.RegionSink {
	return &regularitySink{c: c, h: fnv.New64a()}
}

// regularitySink hashes one region's iterations into their signatures.
type regularitySink struct {
	c           *RegularityCounter
	h           hash.Hash64
	inIteration bool
	depth       int
	buf         [4]byte
}

func (s *regularitySink) flush() {
	if s.inIteration {
		s.c.counts[s.h.Sum64()]++
		s.c.total++
		s.h.Reset()
	}
}

func (s *regularitySink) Event(ev trace.Event) {
	in := s.c.mod.InstrAt(ev.ID)
	switch in.Op {
	case ir.OpLoopIter:
		// Only this loop's own markers delimit iterations; nested loops'
		// markers are part of the iteration body.
		if int(in.Loop) == s.c.loopID && s.depth == 0 {
			s.flush()
			s.inIteration = true
			return
		}
	case ir.OpCall:
		s.depth++
	case ir.OpRet:
		if s.depth > 0 {
			s.depth--
		}
	}
	if s.inIteration {
		s.h.Write(binary.LittleEndian.AppendUint32(s.buf[:0], uint32(ev.ID)))
	}
}

func (s *regularitySink) Close(int) { s.flush() }

// Abort drops the region's pending iteration: a region that never closed
// has no last iteration boundary.
func (s *regularitySink) Abort() {}

// Result returns the signature distribution over the iterations completed
// so far: an iteration completes at the loop's next iteration marker or
// when its region closes.
func (c *RegularityCounter) Result() Regularity {
	r := Regularity{Iterations: c.total, DistinctShapes: len(c.counts)}
	if c.total == 0 {
		return r
	}
	fracs := make([]float64, 0, len(c.counts))
	for _, n := range c.counts {
		fracs = append(fracs, float64(n)/float64(c.total))
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(fracs)))
	r.ModalFraction = fracs[0]
	if len(fracs) > 8 {
		fracs = fracs[:8]
	}
	r.ShapeFractions = fracs
	return r
}

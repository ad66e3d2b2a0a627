package core

import (
	"slices"
	"sort"

	"github.com/example/vectrace/internal/ddg"
)

// This file holds the stream kernel's post-timestamp stages for one
// candidate column: partitioning its instances by timestamp, and the §3.2
// and §3.3 stride analyses over the column's own tuple array. Instances are
// named by their position in the column (the k-th instance in trace
// order), which indexes instTS and tup directly.

// Subpartition is a set of instances from one parallel partition that are
// independent AND access memory with a uniform stride: the viable unit of
// SIMD execution. For the unit-stride analysis the per-component strides are
// 0 (splat/constant) or the element size; for the non-unit analysis they are
// any per-component constants.
type Subpartition struct {
	// Nodes lists members sorted by memory-access tuple.
	Nodes []int32
	// Strides are the per-tuple-component strides (result, operand 1,
	// operand 2) in bytes; meaningful only when len(Nodes) > 1.
	Strides [3]int64
}

// Size returns the subpartition's member count — the achievable vector
// length for this group.
func (s *Subpartition) Size() int { return len(s.Nodes) }

// finishScratch holds the reusable buffers of one candidate's
// post-timestamp stages; each kernel keeps one, so successive candidates
// and regions recycle them.
type finishScratch struct {
	// counts is indexed by timestamp (1..maxTS) during partition bucketing.
	counts []int32
	// backing is the single allocation all of one candidate's partition
	// member lists are sliced from.
	backing []int32
	// parts is the reused partition header slice.
	parts []Partition
	// singles collects one partition's unit-stride singleton leftovers for
	// the §3.3 wait-list analysis.
	singles []int32
	// visit, when non-nil, sees every subpartition the stride stages form
	// (see export_test.go); nil in production.
	visit func(nonUnit bool, sp Subpartition)
}

// partition buckets a candidate's instances by timestamp. instTS holds
// the instances' timestamps in trace order; members are positions into it.
// Timestamps of instances are contiguous in 1..maxTS (each instance
// increments its own timestamp, so no instance sits at 0), which makes a
// counting sort both allocation-lean and deterministic: every bucket keeps
// its members in trace order, and buckets are emitted in increasing
// timestamp order.
//
// The returned partitions alias sc.backing and sc.parts; they are valid
// until the scratch's next partition call.
func (sc *finishScratch) partition(instTS []int32) []Partition {
	sc.parts = sc.parts[:0]
	if len(instTS) == 0 {
		return sc.parts
	}
	maxTS := slices.Max(instTS)
	if cap(sc.counts) < int(maxTS)+1 {
		sc.counts = make([]int32, maxTS+1)
	} else {
		sc.counts = sc.counts[:maxTS+1]
		clear(sc.counts)
	}
	counts := sc.counts
	for _, t := range instTS {
		counts[t]++
	}
	// Exclusive prefix sum: counts[t] becomes bucket t's start offset.
	var sum int32
	for t := int32(1); t <= maxTS; t++ {
		c := counts[t]
		counts[t] = sum
		sum += c
	}
	if cap(sc.backing) < len(instTS) {
		sc.backing = make([]int32, len(instTS))
	}
	backing := sc.backing[:len(instTS)]
	for k, t := range instTS {
		backing[counts[t]] = int32(k)
		counts[t]++
	}
	// counts[t] is now bucket t's end offset; the previous end is its start.
	prev := int32(0)
	for t := int32(1); t <= maxTS; t++ {
		end := counts[t]
		if end > prev {
			sc.parts = append(sc.parts, Partition{Timestamp: t, Nodes: backing[prev:end:end]})
		}
		prev = end
	}
	return sc.parts
}

// sortByTuple returns the instances sorted lexicographically by memory
// tuple, ties in their given (trace) order: the order in which uniform
// strides become adjacent.
func sortByTuple(tup [][3]int64, nodes []int32) []int32 {
	sorted := slices.Clone(nodes)
	sort.SliceStable(sorted, func(i, j int) bool {
		a, b := &tup[sorted[i]], &tup[sorted[j]]
		for k := range a {
			if a[k] != b[k] {
				return a[k] < b[k]
			}
		}
		return false
	})
	return sorted
}

// unitStrideSubpartitions implements §3.2: the instances of one parallel
// partition are sorted by operand addresses, then scanned; the current
// subpartition ends when a component stride is non-zero and non-unit, or
// differs from the previously observed stride for that component.
func unitStrideSubpartitions(tup [][3]int64, nodes []int32, elemSize int64) []Subpartition {
	sorted := sortByTuple(tup, nodes)
	var out []Subpartition
	var cur Subpartition
	flush := func() {
		if len(cur.Nodes) > 0 {
			out = append(out, cur)
		}
		cur = Subpartition{}
	}
	for _, n := range sorted {
		if len(cur.Nodes) == 0 {
			cur.Nodes = append(cur.Nodes, n)
			continue
		}
		prev, t := &tup[cur.Nodes[len(cur.Nodes)-1]], &tup[n]
		ok := true
		var strides [3]int64
		for k := 0; k < 3; k++ {
			d := t[k] - prev[k]
			if d != 0 && d != elemSize {
				ok = false
				break
			}
			strides[k] = d
		}
		if ok && len(cur.Nodes) > 1 {
			// The stride must match the previously observed stride.
			if strides != cur.Strides {
				ok = false
			}
		}
		if !ok {
			flush()
			cur.Nodes = append(cur.Nodes, n)
			continue
		}
		cur.Strides = strides
		cur.Nodes = append(cur.Nodes, n)
	}
	flush()
	return out
}

// nonUnitStrideSubpartitions implements §3.3: the singleton leftovers of
// the unit-stride analysis (instances of the same static instruction with
// the same timestamp) are sorted and scanned with a wait list. When the
// observed stride differs from the current subpartition's established
// stride, the instance is waitlisted and the scan continues; waitlisted
// instances are then re-scanned, each pass forming one subpartition, until
// none remain. Any constant per-component stride is accepted — including
// the non-unit strides whose presence signals a profitable data-layout
// transformation.
func nonUnitStrideSubpartitions(tup [][3]int64, nodes []int32) []Subpartition {
	pending := sortByTuple(tup, nodes)
	var out []Subpartition
	for len(pending) > 0 {
		var cur Subpartition
		var wait []int32
		established := false
		for _, n := range pending {
			if len(cur.Nodes) == 0 {
				cur.Nodes = append(cur.Nodes, n)
				continue
			}
			prev, t := &tup[cur.Nodes[len(cur.Nodes)-1]], &tup[n]
			var strides [3]int64
			for k := 0; k < 3; k++ {
				strides[k] = t[k] - prev[k]
			}
			if !established {
				cur.Strides = strides
				established = true
				cur.Nodes = append(cur.Nodes, n)
				continue
			}
			if strides == cur.Strides {
				cur.Nodes = append(cur.Nodes, n)
			} else {
				wait = append(wait, n)
			}
		}
		out = append(out, cur)
		pending = wait
	}
	return out
}

// strideStats runs §3.2 and §3.3 over all partitions of one candidate
// column whose instance tuples are tup. A never-stored result's tuple slot
// still holds ddg.NoAddr from the feed; it is rewritten in place to the
// paper's artificial address 0 first (the reduction rule reads both alike).
//
// Instances in singleton *parallel* partitions are serial and excluded
// from both analyses (only "instructions within a non-singleton parallel
// partition that did not belong in any unit-stride subpartition" are
// further analyzed). The §3.3 wait-list scan operates on instances "of the
// same static instruction, and with the same timestamp" — and every
// singleton leftover of partition p carries exactly p's timestamp while
// distinct partitions carry distinct timestamps, so the leftovers are
// scanned partition by partition.
func (sc *finishScratch) strideStats(tup [][3]int64, parts []Partition, elemSize int64) (unit, non StrideSummary) {
	for i := range tup {
		if tup[i][0] == ddg.NoAddr {
			tup[i][0] = 0
		}
	}
	for i := range parts {
		p := &parts[i]
		if len(p.Nodes) == 1 {
			continue // singleton parallel partition: not vectorizable, not waitlisted
		}
		sc.singles = sc.singles[:0]
		for _, sp := range unitStrideSubpartitions(tup, p.Nodes, elemSize) {
			if sc.visit != nil {
				sc.visit(false, sp)
			}
			if sp.Size() > 1 {
				unit.add(sp.Size())
			} else {
				sc.singles = append(sc.singles, sp.Nodes...)
			}
		}
		if len(sc.singles) < 2 {
			continue
		}
		for _, sp := range nonUnitStrideSubpartitions(tup, sc.singles) {
			if sc.visit != nil {
				sc.visit(true, sp)
			}
			if sp.Size() > 1 {
				non.add(sp.Size())
			}
		}
	}
	return unit, non
}

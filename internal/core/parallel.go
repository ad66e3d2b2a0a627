package core

import (
	"context"
	"errors"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"github.com/example/vectrace/internal/obs"
)

// This file is the analysis scheduler: a bounded worker pool that fans
// independent analysis units out across goroutines, plus the recycled
// per-worker buffers the per-instruction pipeline runs in.
//
// Parallelizing the per-instruction sweep is sound because Algorithm 1 is
// read-only over the graph: each candidate's timestamping (Property 3.1)
// reads shared immutable structures (g.Nodes, g.Extra, g.Mod) and writes
// only its own timestamp buffer, so the per-candidate pipelines share no
// mutable state. Determinism follows from index-addressed result merging:
// workers race only for *which* unit to run next, never for where a result
// lands, and all cross-unit aggregation happens after the pool drains, in
// a fixed order, over integer counters.

// WorkerCount resolves the Workers option: positive values are used as
// given, zero or negative select GOMAXPROCS (all available cores).
func (o Options) WorkerCount() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// ParallelFor runs fn(i) for every i in [0, n) on at most workers
// goroutines, blocking until all calls return. With workers <= 1 (or n <= 1)
// it degenerates to a plain sequential loop on the calling goroutine — the
// oracle path parallel callers are tested against. Units are handed out
// through a shared atomic cursor, so callers must make fn communicate
// exclusively through index-addressed storage (results[i], errs[i]) to keep
// the overall computation deterministic.
//
// Failure model: each unit runs isolated. A panic inside fn is recovered
// into a *UnitError carrying the unit index and stack, and the remaining
// units still run — one poisoned unit degrades its result slot, not the
// process. Errors returned by fn pass through unchanged (fn may return its
// own labeled *UnitError). The combined error joins every unit failure in
// unit-index order, so the reported failure set is deterministic.
//
// Cancellation: once ctx is done no further units are dispatched (units
// already running finish), and the returned error wraps both ErrCanceled
// and ctx's own error. A nil ctx means no cancellation.
func ParallelFor(ctx context.Context, n, workers int, fn func(i int) error) error {
	if ctx == nil {
		ctx = context.Background()
	}
	if workers > n {
		workers = n
	}
	errs := make([]error, n)
	runUnit := func(i int) {
		defer func() {
			if v := recover(); v != nil {
				errs[i] = recovered(i, "", -1, v, debug.Stack())
			}
		}()
		errs[i] = fn(i)
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if ctx.Err() != nil {
				break
			}
			runUnit(i)
		}
	} else {
		var next atomic.Int64
		var wg sync.WaitGroup
		wg.Add(workers)
		for w := 0; w < workers; w++ {
			go func() {
				defer wg.Done()
				for ctx.Err() == nil {
					i := int(next.Add(1)) - 1
					if i >= n {
						return
					}
					runUnit(i)
				}
			}()
		}
		wg.Wait()
	}
	joined := make([]error, 0, 2)
	for _, err := range errs {
		if err != nil {
			joined = append(joined, err)
		}
	}
	if err := Canceled(ctx); err != nil {
		joined = append(joined, err)
	}
	return errors.Join(joined...)
}

// Guard runs f with the same per-unit panic isolation ParallelFor applies,
// labeling any recovered panic with the unit's kind ("candidate",
// "region") and domain identity so the surfaced *UnitError names what
// failed rather than a bare loop index.
func Guard(unit int, kind string, id int64, f func() error) (err error) {
	defer func() {
		if v := recover(); v != nil {
			err = recovered(unit, kind, id, v, debug.Stack())
		}
	}()
	return f()
}

// instrScratch holds the reusable buffers of one per-instruction analysis:
// the Algorithm 1 timestamp vector and the dense partition buckets. One
// scratch is checked out per analysis unit and recycled through a pool, so
// a full AnalyzeCtx sweep performs O(workers) buffer allocations instead of
// O(candidates).
type instrScratch struct {
	// ts is the per-node timestamp buffer filled by the graph sweep's
	// Algorithm 1 (the stream kernel keeps its own rows instead).
	ts []int32
	// instTS holds the analyzed instruction's per-instance timestamps,
	// parallel to its instance list.
	instTS []int32
	// counts is indexed by timestamp (1..maxTS) during partition bucketing.
	counts []int32
	// backing is the single allocation all of one instruction's partition
	// node lists are sliced from.
	backing []int32
	// parts is the reused partition header slice.
	parts []Partition
	// singles collects one partition's unit-stride singleton leftovers for
	// the §3.3 wait-list analysis.
	singles []int32
	// used marks a scratch that has been through at least one checkout, so
	// the pool-hit-rate counters can tell reuse from a fresh allocation.
	used bool
}

// scratchPool recycles instrScratch buffers across analysis units, workers,
// and successive Analyze calls.
var scratchPool = sync.Pool{New: func() any { return new(instrScratch) }}

// getScratch checks a scratch out of the pool with its timestamp buffer
// sized for a graph of nNodes nodes. The buffer is not zeroed: Algorithm 1
// writes every slot. A non-nil recorder tallies the checkout as a pool hit
// (recycled scratch) or miss (fresh allocation).
func getScratch(nNodes int, rec *obs.Recorder) *instrScratch {
	sc := scratchPool.Get().(*instrScratch)
	if rec != nil {
		if sc.used {
			rec.Add(obs.ScratchPoolHits, 1)
		} else {
			rec.Add(obs.ScratchPoolMisses, 1)
		}
	}
	sc.used = true
	if cap(sc.ts) < nNodes {
		sc.ts = make([]int32, nNodes)
	}
	sc.ts = sc.ts[:nNodes]
	return sc
}

// release returns the scratch to the pool.
func (sc *instrScratch) release() { scratchPool.Put(sc) }

// partition buckets the instances of one static instruction by timestamp
// into dense, slice-indexed buckets. instTS carries the instances'
// timestamps, parallel to inst (so both engines can feed it: the graph
// sweep gathers from its per-node array, the stream kernel keeps them per
// column).
// Timestamps of instances are contiguous in 1..maxTS (each instance
// increments its own timestamp, so no instance sits at 0), which makes a
// counting sort both allocation-lean and deterministic: every bucket keeps
// its members in trace order because the instance list is walked in trace
// order, and buckets are emitted in increasing timestamp order.
//
// The returned partitions alias sc.backing and sc.parts; they are valid
// until the scratch's next partition call.
func (sc *instrScratch) partition(inst []int32, instTS []int32) []Partition {
	sc.parts = sc.parts[:0]
	if len(inst) == 0 {
		return sc.parts
	}
	var maxTS int32
	for _, t := range instTS {
		if t > maxTS {
			maxTS = t
		}
	}
	if cap(sc.counts) < int(maxTS)+1 {
		sc.counts = make([]int32, maxTS+1)
	} else {
		sc.counts = sc.counts[:maxTS+1]
		for i := range sc.counts {
			sc.counts[i] = 0
		}
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
	if cap(sc.backing) < len(inst) {
		sc.backing = make([]int32, len(inst))
	}
	backing := sc.backing[:len(inst)]
	for k, n := range inst {
		t := instTS[k]
		backing[counts[t]] = n
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

package core

import (
	"context"
	"errors"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// This file is the analysis scheduler: a bounded worker pool that fans
// independent analysis units (regions, each on its own stream kernel) out
// across goroutines. The units share no mutable state. Determinism follows
// from index-addressed result merging: workers race only for *which* unit
// to run next, never for where a result lands, and all cross-unit
// aggregation happens after the pool drains, in a fixed order.

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

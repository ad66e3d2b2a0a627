package core

// This file is the analysis error taxonomy: the typed failures every
// long-running path surfaces instead of crashing or hanging. The contract
// is uniform — callers classify with errors.Is/errors.As, never by string
// matching:
//
//   - ErrResourceLimit: a configured Budget (or interpreter limit) was
//     exceeded. The analysis stopped deliberately, before exhausting the
//     process.
//   - ErrCanceled: cooperative cancellation. Errors carrying it also wrap
//     the context's own error, so errors.Is(err, context.DeadlineExceeded)
//     and errors.Is(err, context.Canceled) report the precise cause.
//   - *UnitError: one unit of a fanned-out computation (a candidate, a
//     region) failed — by returning an error or by panicking — and
//     was isolated so its siblings could finish.
//
// trace.ErrCorruptTrace completes the taxonomy on the ingestion side (the
// trace package cannot live here: core depends on it transitively).

import (
	"context"
	"errors"
	"fmt"
)

// ErrResourceLimit is wrapped by every error that reports an exceeded
// resource budget: the interpreter's step, depth, and stack-arena limits,
// and the analysis heap budget (Budget.MaxAnalysisBytes).
var ErrResourceLimit = errors.New("resource limit exceeded")

// ErrCanceled is wrapped by every error that reports cooperative
// cancellation of an analysis. Such errors also wrap the causing context
// error, so both errors.Is(err, ErrCanceled) and errors.Is(err,
// context.DeadlineExceeded) (or context.Canceled) hold.
var ErrCanceled = errors.New("analysis canceled")

// Canceled wraps ctx's error into the taxonomy. It returns nil while ctx is
// still live, so callers can use it directly as a cooperative check.
func Canceled(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("%w: %w", ErrCanceled, err)
	}
	return nil
}

// A UnitError reports the failure of one unit of a fanned-out computation.
// ParallelFor recovers per-unit panics into UnitErrors (keeping one
// poisoned unit from killing the process), and analysis stages label their
// units so the report names the failed candidate or region rather than a
// bare index.
type UnitError struct {
	// Unit is the unit's index within its ParallelFor dispatch.
	Unit int
	// Kind names the unit's granularity: "candidate", "region", or
	// "unit" when the dispatcher had no label.
	Kind string
	// ID is the unit's domain identity — the candidate instruction ID or
	// the region index — or -1.
	ID int64
	// Stack is the recovered goroutine stack when the unit panicked, nil
	// when it returned an error normally.
	Stack []byte
	// Err is the unit's underlying error. For a recovered panic it is a
	// synthesized error carrying the panic value.
	Err error
}

// Error implements error.
func (e *UnitError) Error() string {
	kind := e.Kind
	if kind == "" {
		kind = "unit"
	}
	if e.ID >= 0 {
		return fmt.Sprintf("%s %d (unit %d): %v", kind, e.ID, e.Unit, e.Err)
	}
	return fmt.Sprintf("%s %d: %v", kind, e.Unit, e.Err)
}

// Unwrap exposes the underlying error to errors.Is/errors.As.
func (e *UnitError) Unwrap() error { return e.Err }

// recovered converts a recovered panic value into a UnitError carrying the
// captured stack. An error panic value is preserved for errors.Is/As.
func recovered(unit int, kind string, id int64, v any, stack []byte) *UnitError {
	err, ok := v.(error)
	if !ok {
		err = fmt.Errorf("panic: %v", v)
	} else {
		err = fmt.Errorf("panic: %w", err)
	}
	return &UnitError{Unit: unit, Kind: kind, ID: id, Stack: stack, Err: err}
}

// UnitErrors flattens err (typically a ParallelFor result, possibly an
// errors.Join of several failures) into its constituent UnitErrors.
func UnitErrors(err error) []*UnitError {
	var out []*UnitError
	var walk func(error)
	walk = func(e error) {
		if e == nil {
			return
		}
		if ue, ok := e.(*UnitError); ok {
			out = append(out, ue)
			return
		}
		switch u := e.(type) {
		case interface{ Unwrap() []error }:
			for _, c := range u.Unwrap() {
				walk(c)
			}
		case interface{ Unwrap() error }:
			walk(u.Unwrap())
		}
	}
	walk(err)
	return out
}

package core

// Budget bounds the resources one analysis (or the execution feeding it)
// may consume. It promotes the interpreter's historical hard limits — the
// step bound, the call-depth bound, and the stack arena whose exhaustion
// used to panic — and the analysis working-set bound into one
// caller-visible policy, checked at region granularity: exceeding any
// field yields an error wrapping ErrResourceLimit, never a panic.
//
// The zero Budget imposes no analysis bound and leaves the interpreter's
// defaults in place, so existing callers are unaffected.

// Budget is the resource policy for one analysis pipeline.
type Budget struct {
	// MaxSteps bounds the dynamic instructions the interpreter executes
	// (0 keeps the interpreter's 500M default).
	MaxSteps int64
	// MaxDepth bounds the interpreter call-stack depth (0 keeps the
	// interpreter's default of 10000).
	MaxDepth int
	// MaxStackBytes is the interpreter's stack arena size (0 keeps the
	// interpreter's 8 MiB default).
	MaxStackBytes int64
	// MaxAnalysisBytes bounds the analysis working set of one region: the
	// stream kernel's live tables and instance arrays (see Options.Budget).
	// 0 means unlimited. Exceeding it fails with ErrResourceLimit instead
	// of allocating past the budget.
	MaxAnalysisBytes int64
}

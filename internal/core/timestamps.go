// Package core implements the paper's dynamic vectorization-potential
// analysis: per-static-instruction timestamping of the dynamic
// data-dependence graph (Algorithm 1), partitioning of instances into
// maximal independent sets, subdivision of partitions by contiguous
// (unit/zero-stride) memory access (§3.2), the non-unit constant-stride
// wait-list analysis (§3.3), and the metrics reported in the paper's tables.
//
// One engine computes all of it: the one-pass stream kernel (stream.go)
// evaluates Algorithm 1 directly over a region's events without
// materializing the graph, partitions each candidate's instances and runs
// the stride stages over its own tuple arrays (stride.go), and assembles
// the report (report.go). The graph formulation of the same analysis is
// the tests' oracle, internal/reference, which shares no algorithm code
// with this package. Callers that fan out over regions use the bounded
// worker pool in parallel.go.
package core

// Options configures the analysis.
type Options struct {
	// RelaxReductions removes dependence edges due to updates of reduction
	// accumulators (s += expr chains) when timestamping the reduction
	// instruction itself. This is the extension the paper sketches in §3
	// and §4.1 ("our approach could be extended to ignore dependences due
	// to reductions, which would uncover these additional vectorization
	// opportunities").
	RelaxReductions bool
	// Workers bounds the analysis worker pool: for callers that fan out
	// over regions, the number of regions analyzed at once. 1 forces the
	// sequential path; 0 or negative selects GOMAXPROCS. Output is
	// identical for every setting.
	Workers int
	// Budget bounds the resources the analysis may consume (see Budget).
	// The zero value imposes no analysis bound. On the stream kernel it
	// bounds the live working set (last-writer tables, shadow memory,
	// instance arrays); exceeding it mid-region degrades that region only,
	// with an ErrResourceLimit-wrapped error rather than an allocation past
	// it.
	Budget Budget

	// mapShadow selects the stream kernel's map-backed shadow memory
	// instead of the paged shadow: the reference the differential tests
	// compare the paged shadow against (the map still serves
	// out-of-directory addresses in production). Output is byte-identical
	// either way. Only export_test.go sets it.
	mapShadow bool
}

// Partition groups the dynamic instances of one static instruction that
// share a timestamp. By Property 3.1 the members are mutually independent:
// they may execute concurrently under some dependence-preserving reordering
// of the whole computation.
type Partition struct {
	Timestamp int32
	// Nodes lists the members in trace order.
	Nodes []int32
}

// Package ddg holds the dependence model of the dynamic data-dependence
// graph (DDG) that the paper's analysis is defined on (§3): which
// dependence categories join two dynamic instruction instances, and which
// instructions are candidates.
//
// By default the edges are flow dependences only — one instance consumed a
// value the other produced, through a virtual register or through memory.
// Anti- and output dependences are excluded ("they do not represent
// essential features of the computation"), and so are control
// dependences; Options adds both categories back, which leaves the
// downstream analyses unchanged in form (the paper makes the same
// observation).
//
// No shipped command builds the graph: the one-pass stream kernel
// (internal/core.StreamKernel) evaluates the analysis directly over the
// event stream under these options. The graph itself is the tests' oracle
// (internal/reference).
package ddg

// NoAddr marks a value that was never stored to memory. It is distinct from
// address 0 so a genuine first store to address 0 is recorded rather than
// silently dropped from the §3.2 memory tuple; the stride analysis maps
// NoAddr to the paper's artificial zero address when forming tuples.
const NoAddr int64 = -1

// Options selects the dependence categories and the candidate set.
type Options struct {
	// IncludeAntiOutput adds anti (write-after-read) and output
	// (write-after-write) memory dependences. The paper's analysis runs
	// with these off; the option exists to measure how much parallelism
	// the relaxation buys (scalar/array expansion would remove them).
	IncludeAntiOutput bool
	// IncludeControl adds run-time control dependences: every instruction
	// depends on the most recently executed conditional branch. The paper
	// excludes control dependences "to focus on the data flow and the
	// optimization potential implied by it" but notes the graph analyses
	// are unchanged if they are added; this option demonstrates that, and
	// measures how much potential the control structure hides.
	IncludeControl bool
	// CharacterizeInts extends the candidate set to integer add/sub/mul
	// (§4: the analysis "can be carried out for any type of operations,
	// e.g., integer arithmetic"): their operand provenance is recorded and
	// they count as candidates.
	CharacterizeInts bool
}

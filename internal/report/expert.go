package report

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"github.com/example/vectrace/internal/core"
	"github.com/example/vectrace/internal/ddg"
	"github.com/example/vectrace/internal/ir"
	"github.com/example/vectrace/internal/pipeline"
	"github.com/example/vectrace/internal/profile"
	"github.com/example/vectrace/internal/staticvec"
	"github.com/example/vectrace/internal/trace"
)

// Opportunity is one hot loop ranked for a vectorization expert's attention
// (§4.2: "An automated tool allows the vectorization expert to quickly
// eliminate loops with little to no vectorization potential, and concentrate
// on the loops with high potential").
type Opportunity struct {
	Func string
	Line int
	// PercentCycles is the loop's share of execution time.
	PercentCycles float64
	// PercentPacked is what the compiler already achieves.
	PercentPacked float64
	// UnitPct / NonUnitPct are the dynamic analysis' potential.
	UnitPct    float64
	NonUnitPct float64
	// Gap is the unexploited potential: the share of operations the
	// analysis proved vectorizable — directly (unit stride) or after a
	// data-layout transformation (non-unit constant stride) — that the
	// compiler did not pack. Floored at zero.
	Gap float64
	// Score weights the gap by the loop's cycle share: where expert time
	// pays off most.
	Score float64
	// CompilerReason is the vectorizer's rejection reason, when it gave
	// one for the loop itself.
	CompilerReason string
	// Regularity is the control-structure metric from the paper's §4.4
	// future-work proposal: the fraction of iterations sharing the modal
	// control signature. High values mean the potential is likely
	// realizable through code transformation; low values mean the loop is
	// povray-style irregular and needs a domain expert.
	Regularity float64
	// Classification buckets the blocker for the paper's third audience,
	// compiler writers (§1): a "static" blocker means the transformation
	// enabling vectorization is derivable without run-time information
	// (the Gauss-Seidel observation: "all the information needed to
	// transform the code is actually derivable from purely static
	// analysis"), while a "dynamic" blocker depends on input data.
	Classification BlockerClass
}

// BlockerClass categorizes why the compiler missed a loop.
type BlockerClass string

// Blocker classes.
const (
	// BlockerNone: the loop is already vectorized.
	BlockerNone BlockerClass = "vectorized"
	// BlockerStaticTransform: a loop transformation (splitting,
	// interchange, peeling) provable statically would expose the
	// parallelism — the Gauss-Seidel and bwaves cases.
	BlockerStaticTransform BlockerClass = "static: loop transformation"
	// BlockerStaticLayout: a data-layout transformation (AoS→SoA,
	// transposition) would make the accesses contiguous — the milc and
	// Listing 3 cases.
	BlockerStaticLayout BlockerClass = "static: data-layout transformation"
	// BlockerStaticAnalysis: stronger alias/range analysis or runtime
	// checks would admit the loop as written — the pointer-code cases.
	BlockerStaticAnalysis BlockerClass = "static: alias/range analysis"
	// BlockerDynamic: the blocker is data-dependent (indirect indexing,
	// input-dependent control flow); exploiting the potential needs
	// domain knowledge, as in the gromacs and povray case studies.
	BlockerDynamic BlockerClass = "dynamic: input-dependent"
	// BlockerOther covers structural reasons (no FP work, calls, …).
	BlockerOther BlockerClass = "other"
)

// ClassifyBlocker maps a vectorizer rejection reason to its class.
func ClassifyBlocker(reason string) BlockerClass {
	switch {
	case reason == "":
		return BlockerNone
	case strings.Contains(reason, "loop-carried dependence"),
		strings.Contains(reason, "store recurrence"),
		strings.Contains(reason, "scalar recurrence"),
		strings.Contains(reason, "trip count"):
		return BlockerStaticTransform
	case strings.Contains(reason, "non-unit stride"):
		return BlockerStaticLayout
	case strings.Contains(reason, "aliasing"),
		strings.Contains(reason, "no unique induction"):
		return BlockerStaticAnalysis
	case strings.Contains(reason, "data-dependent"),
		strings.Contains(reason, "control flow"):
		return BlockerDynamic
	}
	return BlockerOther
}

// RankOpportunities profiles an execution, analyzes every hot loop's first
// dynamic region, and ranks the loops by unexploited, cycle-weighted
// vectorization potential. An untraced counting run picks the hot loops;
// one live run then analyzes their first regions and counts their control
// signatures over every region, without holding the trace.
func RankOpportunities(mod *ir.Module, threshold float64) ([]Opportunity, error) {
	ctx := context.Background()
	res, err := pipeline.RunCtx(ctx, mod, true, core.Budget{})
	if err != nil {
		return nil, err
	}
	verdicts := staticvec.AnalyzeModule(mod)
	hot := profile.Build(mod, res, verdicts).Hot(threshold)
	ids := make([]int, len(hot))
	shapes := make([]*core.RegularityCounter, len(hot))
	taps := make([]trace.SinkFactory, len(hot))
	for i, st := range hot {
		ids[i] = st.LoopID
		shapes[i] = core.NewRegularityCounter(mod, st.LoopID)
		taps[i] = shapes[i].Sink
	}
	_, first, err := pipeline.AnalyzeFirstRegionsLiveCtx(ctx, mod, ids, taps, ddg.Options{}, core.Options{}, core.Budget{})
	if err != nil {
		return nil, err
	}

	var out []Opportunity
	for i, st := range hot {
		rep := first[i].Report
		if first[i].Err != nil {
			return nil, fmt.Errorf("loop %s:%d: %w", st.Func, st.Line, first[i].Err)
		}
		if rep == nil {
			continue // the loop never ran
		}
		o := Opportunity{
			Func:          st.Func,
			Line:          st.Line,
			PercentCycles: st.PercentCycles,
			PercentPacked: st.PercentPacked(),
			UnitPct:       rep.UnitVecOpsPct,
			NonUnitPct:    rep.NonUnitVecOpsPct,
		}
		o.Gap = o.UnitPct + o.NonUnitPct - o.PercentPacked
		if o.Gap < 0 {
			o.Gap = 0
		}
		o.Regularity = shapes[i].Result().ModalFraction
		o.Score = o.Gap * o.PercentCycles / 100
		if v, ok := verdicts[st.LoopID]; ok && !v.Vectorized {
			o.CompilerReason = v.Reason
		}
		o.Classification = ClassifyBlocker(o.CompilerReason)
		out = append(out, o)
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Score > out[j].Score })
	return out, nil
}

// RankKernel is the one-call form used by the CLI: compile, then rank.
func RankKernel(filename, src string, threshold float64) ([]Opportunity, error) {
	mod, err := pipeline.Compile(filename, src)
	if err != nil {
		return nil, err
	}
	return RankOpportunities(mod, threshold)
}

// RenderOpportunities renders the ranking.
func RenderOpportunities(rows []Opportunity) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-12s %6s %8s %8s %8s %8s %7s %7s  %-34s %s\n",
		"func", "line", "cycles%", "packed%", "unit%", "nonunit%", "regul", "score", "class", "compiler")
	for _, o := range rows {
		fmt.Fprintf(&b, "%-12s %6d %7.1f%% %7.1f%% %7.1f%% %7.1f%% %7.2f %7.1f  %-34s %s\n",
			o.Func, o.Line, o.PercentCycles, o.PercentPacked, o.UnitPct, o.NonUnitPct, o.Regularity,
			o.Score, o.Classification, o.CompilerReason)
	}
	return b.String()
}

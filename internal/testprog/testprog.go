// Package testprog holds the MiniC programs the differential test suites
// of several packages share: a seeded generator of small random programs
// and the fixed fixtures whose shapes the suites rely on. Only tests
// import it.
package testprog

import (
	"fmt"
	"math/rand"
	"strings"

	"github.com/example/vectrace/internal/ir"
	"github.com/example/vectrace/internal/kernels"
	"github.com/example/vectrace/internal/source"
)

// Fault is a three-region kernel: the inner loop on FaultInnerLine runs
// once per outer iteration, followed by a reduction loop.
const Fault = `
double a[24];
double s;
void main() {
  int t; int i;
  for (t = 0; t < 3; t++) {
    for (i = 1; i < 24; i++) {  /* inner loop: line 7 */
      a[i] = a[i-1] * 0.5 + 0.25 * i;
    }
  }
  for (i = 0; i < 24; i++) { s = s + a[i]; }
  print(s);
}
`

// FaultInnerLine is the source line of Fault's inner loop.
const FaultInnerLine = 7

// BudgetDemo returns a program with one dynamic region of the loop on
// BudgetDemoLoopLine whose event count is dominated by an integer
// repetition loop: the region is long (≈events × reps) while its candidate
// instances and live addresses stay constant.
func BudgetDemo(reps int) string {
	return fmt.Sprintf(`
double a[8];
int junk;
void main() {
  int t; int r; int i;
  for (t = 0; t < 1; t++) {
    for (r = 0; r < %d; r++) { junk = junk + r; }
    for (i = 1; i < 8; i++) { a[i] = a[i-1] * 0.5 + 0.25; }
  }
}
`, reps)
}

// BudgetDemoLoopLine is the source line of BudgetDemo's analyzed loop.
const BudgetDemoLoopLine = 6

// LoopLines returns the distinct source lines of mod's loops.
func LoopLines(mod *ir.Module) []int {
	seen := map[int]bool{}
	var lines []int
	for _, lm := range mod.Loops {
		if !seen[lm.Line] {
			seen[lm.Line] = true
			lines = append(lines, lm.Line)
		}
	}
	return lines
}

// progGen generates random MiniC programs.
type progGen struct {
	rng    *rand.Rand
	b      strings.Builder
	arrays []string
	n      int // array length
	depth  int
	loopVs []string
}

// Random returns a small random, valid MiniC program determined by seed:
// a few global arrays and scalars, an initialization loop, then one to
// three loops mixing array-to-array statements, recurrences, scalar and
// global reductions, conditional stores, and at most one nested j-loop.
// Every loop runs 1..n-1, so the ±1 affine index offsets stay in bounds.
func Random(seed int64) string {
	g := &progGen{rng: rand.New(rand.NewSource(seed)), n: 8 + rand.New(rand.NewSource(seed)).Intn(5)}
	numArrays := 2 + g.rng.Intn(3)
	for i := 0; i < numArrays; i++ {
		name := fmt.Sprintf("A%d", i)
		g.arrays = append(g.arrays, name)
		fmt.Fprintf(&g.b, "double %s[%d];\n", name, g.n)
	}
	g.b.WriteString("double acc;\n\nvoid main() {\n  int i;\n  int j;\n  double s;\n  s = 0.5;\n")
	// Initialization loop so loads never see uninitialized zeros only.
	fmt.Fprintf(&g.b, "  for (i = 0; i < %d; i++) {\n", g.n)
	for _, a := range g.arrays {
		fmt.Fprintf(&g.b, "    %s[i] = %s + 0.25 * i;\n", a, g.constant())
	}
	g.b.WriteString("  }\n")

	stmts := 1 + g.rng.Intn(3)
	for i := 0; i < stmts; i++ {
		g.loop("i")
	}
	g.b.WriteString("  print(s);\n  print(acc);\n")
	for _, a := range g.arrays {
		fmt.Fprintf(&g.b, "  print(%s[%d]);\n", a, g.rng.Intn(g.n))
	}
	g.b.WriteString("}\n")
	return g.b.String()
}

func (g *progGen) constant() string {
	return fmt.Sprintf("%.3f", 0.1+g.rng.Float64())
}

// index produces an in-bounds affine index for a loop running [1, n-1).
func (g *progGen) index(v string) string {
	switch g.rng.Intn(4) {
	case 0:
		return v + " - 1"
	case 1:
		return v + " + 1"
	default:
		return v
	}
}

func (g *progGen) indent() string { return strings.Repeat("  ", g.depth+1) }

func (g *progGen) loop(v string) {
	// All loops run 1..n-1 so index offsets ±1 stay in bounds.
	fmt.Fprintf(&g.b, "%sfor (%s = 1; %s < %d; %s++) {\n", g.indent(), v, v, g.n-1, v)
	g.depth++
	g.loopVs = append(g.loopVs, v)

	body := 1 + g.rng.Intn(3)
	for k := 0; k < body; k++ {
		switch g.rng.Intn(6) {
		case 0: // array-to-array statement
			dst := g.arrays[g.rng.Intn(len(g.arrays))]
			fmt.Fprintf(&g.b, "%s%s[%s] = %s;\n", g.indent(), dst, v, g.expr(v, 2))
		case 1: // recurrence on the destination array
			dst := g.arrays[g.rng.Intn(len(g.arrays))]
			fmt.Fprintf(&g.b, "%s%s[%s] = %s[%s - 1] * %s + %s;\n",
				g.indent(), dst, v, dst, v, g.constant(), g.expr(v, 1))
		case 2: // scalar reduction
			fmt.Fprintf(&g.b, "%ss = s + %s;\n", g.indent(), g.expr(v, 1))
		case 3: // global accumulator
			fmt.Fprintf(&g.b, "%sacc = acc + %s;\n", g.indent(), g.expr(v, 1))
		case 4: // conditional store
			dst := g.arrays[g.rng.Intn(len(g.arrays))]
			fmt.Fprintf(&g.b, "%sif (%s[%s] > %s) { %s[%s] = %s; }\n",
				g.indent(), g.arrays[g.rng.Intn(len(g.arrays))], v, g.constant(),
				dst, v, g.expr(v, 1))
		case 5: // nested loop over j (only once, only from an i loop)
			if v == "i" && g.depth < 2 {
				g.loop("j")
			} else {
				fmt.Fprintf(&g.b, "%ss = s * %s;\n", g.indent(), g.constant())
			}
		}
	}
	g.loopVs = g.loopVs[:len(g.loopVs)-1]
	g.depth--
	fmt.Fprintf(&g.b, "%s}\n", g.indent())
}

// expr builds a random arithmetic expression over array loads, loop
// variables, and constants.
func (g *progGen) expr(v string, depth int) string {
	if depth <= 0 || g.rng.Intn(3) == 0 {
		switch g.rng.Intn(4) {
		case 0:
			return g.constant()
		case 1:
			return "s"
		default:
			a := g.arrays[g.rng.Intn(len(g.arrays))]
			return fmt.Sprintf("%s[%s]", a, g.index(v))
		}
	}
	ops := []string{"+", "-", "*"}
	op := ops[g.rng.Intn(len(ops))]
	return fmt.Sprintf("(%s %s %s)", g.expr(v, depth-1), op, g.expr(v, depth-1))
}

// RegisterChainLoopLine is the source line of RegisterChain's loop.
const RegisterChainLoopLine = 1

// ChainShape selects the accumulator shape of a RegisterChain module.
type ChainShape int

// The RegisterChain shapes. Each iteration computes s = s + y with one
// static FP add whose X operand is the previous iteration's result, read
// straight from a register.
const (
	// ChainDistinct: y is a fresh per-iteration value.
	ChainDistinct ChainShape = iota
	// ChainSameReg: y is s itself — s = s + s on one node, one register.
	ChainSameReg
	// ChainSameNodeCall: the add runs in a callee f(a, b) = a + b called
	// as f(s, s), so one node reaches it through two registers.
	ChainSameNodeCall
	// ChainLagged: y is loaded from a global that holds the value from two
	// iterations back (the previous value is stored only after the load),
	// so both operands carry an accumulator, with different timestamps.
	ChainLagged
)

// RegisterChain returns a hand-built module whose loop on
// RegisterChainLoopLine accumulates through a register, a shape MiniC's
// lowering never emits (named locals live in frame slots). Every shape
// stores the running value to a global each iteration.
func RegisterChain(shape ChainShape) *ir.Module {
	m := &ir.Module{Name: "regchain", SrcFile: "regchain.vir"}
	m.Globals = []ir.GlobalVar{{Name: "g", Size: 8, Align: 8}}
	m.Loops = []ir.LoopMeta{{ID: 0, Line: RegisterChainLoopLine, Func: "main", Parent: -1}}
	pos := source.Pos{Line: RegisterChainLoopLine}
	emit := func(b *ir.Block, loop int32, ins ir.Instr) {
		ins.Pos, ins.Loop, ins.AssignID = pos, loop, -1
		b.Instrs = append(b.Instrs, ins)
	}
	var callee *ir.Function
	if shape == ChainSameNodeCall {
		callee = &ir.Function{Name: "f", NumParams: 2, HasResult: true, Result: ir.F64}
		b := callee.NewBlock()
		x, y, r := callee.NewReg(), callee.NewReg(), callee.NewReg()
		emit(b, -1, ir.Instr{Op: ir.OpBin, Dst: r, Type: ir.F64, Bin: ir.AddOp, X: ir.RegOp(x), Y: ir.RegOp(y)})
		emit(b, -1, ir.Instr{Op: ir.OpRet, Dst: ir.RegNone, X: ir.RegOp(r)})
	}
	f := &ir.Function{Name: "main"}
	entry, cond, body, exit := f.NewBlock(), f.NewBlock(), f.NewBlock(), f.NewBlock()
	i, c, x, s, a := f.NewReg(), f.NewReg(), f.NewReg(), f.NewReg(), f.NewReg()
	emit(entry, 0, ir.Instr{Op: ir.OpLoopBegin, Dst: ir.RegNone})
	emit(entry, 0, ir.Instr{Op: ir.OpBr, Dst: ir.RegNone, Then: cond.Index})
	emit(cond, 0, ir.Instr{Op: ir.OpCmp, Dst: c, Type: ir.I64, From: ir.I64, Pred: ir.CmpLT, X: ir.RegOp(i), Y: ir.IntConst(12)})
	emit(cond, 0, ir.Instr{Op: ir.OpCondBr, Dst: ir.RegNone, X: ir.RegOp(c), Then: body.Index, Else: exit.Index})
	emit(body, 0, ir.Instr{Op: ir.OpLoopIter, Dst: ir.RegNone})
	emit(body, 0, ir.Instr{Op: ir.OpGlobalAddr, Dst: a, Type: ir.I64, Global: 0})
	add := ir.Instr{Op: ir.OpBin, Dst: s, Type: ir.F64, Bin: ir.AddOp, X: ir.RegOp(s), Y: ir.RegOp(x)}
	switch shape {
	case ChainDistinct:
		emit(body, 0, ir.Instr{Op: ir.OpCast, Dst: x, Type: ir.F64, From: ir.I64, X: ir.RegOp(i)})
	case ChainSameReg:
		add.Y = ir.RegOp(s)
	case ChainSameNodeCall:
		add = ir.Instr{Op: ir.OpCall, Dst: s, Type: ir.F64, Callee: 1, Args: []ir.Operand{ir.RegOp(s), ir.RegOp(s)}}
	case ChainLagged:
		emit(body, 0, ir.Instr{Op: ir.OpLoad, Dst: x, Type: ir.F64, X: ir.RegOp(a)})
		emit(body, 0, ir.Instr{Op: ir.OpStore, Dst: ir.RegNone, Type: ir.F64, X: ir.RegOp(a), Y: ir.RegOp(s)})
	}
	emit(body, 0, add)
	if shape != ChainLagged {
		emit(body, 0, ir.Instr{Op: ir.OpStore, Dst: ir.RegNone, Type: ir.F64, X: ir.RegOp(a), Y: ir.RegOp(s)})
	}
	emit(body, 0, ir.Instr{Op: ir.OpBin, Dst: i, Type: ir.I64, Bin: ir.AddOp, X: ir.RegOp(i), Y: ir.IntConst(1)})
	emit(body, 0, ir.Instr{Op: ir.OpBr, Dst: ir.RegNone, Then: cond.Index})
	emit(exit, 0, ir.Instr{Op: ir.OpLoopEnd, Dst: ir.RegNone})
	emit(exit, 0, ir.Instr{Op: ir.OpRet, Dst: ir.RegNone})
	m.AddFunc(f)
	if callee != nil {
		m.AddFunc(callee)
	}
	m.Finalize()
	return m
}

// Reduction is one input of the reduction-relaxation differentials: a
// program in which some candidate qualifies as a reduction under the ≥50%
// accumulator rule. Src is MiniC source; when it is empty, Module builds
// the program by hand.
type Reduction struct {
	Name   string
	Src    string
	Module func() *ir.Module
}

// Reductions returns the relaxation inputs, one accumulator shape each:
// the two Table-1 reduction kernels (482.sphinx3, 454.calculix), the
// RegisterChain shapes (a register chain, s = s + s on one node through
// one register and through two, both operands carrying), s += a[i] round
// trips through either operand, s = s + s on two loads, a loop whose exit
// test reads the accumulator, a recurrence through distinct addresses
// (not a reduction), and a reduction inside a called function.
func Reductions() []Reduction {
	out := []Reduction{
		{Name: "register-chain", Module: func() *ir.Module { return RegisterChain(ChainDistinct) }},
		{Name: "same-node", Module: func() *ir.Module { return RegisterChain(ChainSameReg) }},
		{Name: "same-node-call", Module: func() *ir.Module { return RegisterChain(ChainSameNodeCall) }},
		{Name: "lagged-chain", Module: func() *ir.Module { return RegisterChain(ChainLagged) }},
		{Name: "round-trip", Src: `
double a[32]; double c[32]; double s; double u; double d; double w;
void main() {
  int i;
  d = 1.0;
  for (i = 0; i < 32; i++) { a[i] = 0.25 * i; }
  for (i = 0; i < 32; i++) { s += a[i]; }
  for (i = 0; i < 32; i++) { u = a[i] * 0.5 + u; }
  for (i = 0; i < 24; i++) { d = d + d; }
  while (w < 50.0) { w = w + 2.5; }
  for (i = 1; i < 32; i++) { c[i] = c[i - 1] + a[i]; }
  print(s + u + d + w);
}
`},
		{Name: "called-function", Src: `
double a[32]; double g; double h;
void acc(double x) { g = g + x; }
double add(double s, double x) { return s + x; }
void main() {
  int i;
  for (i = 0; i < 32; i++) { a[i] = 0.5 * i; }
  for (i = 0; i < 32; i++) { acc(a[i]); h = add(h, a[i] * 2.0); }
  print(g + h);
}
`},
	}
	seen := map[string]bool{}
	for _, b := range kernels.SPEC() {
		if (b.Name == "482.sphinx3" || b.Name == "454.calculix") && !seen[b.Name] {
			seen[b.Name] = true // the first row is the Table-1 kernel
			out = append(out, Reduction{Name: b.Name, Src: b.Kernel.Source})
		}
	}
	return out
}

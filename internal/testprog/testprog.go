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

package report_test

import (
	"math"
	"testing"

	"context"
	"github.com/example/vectrace/internal/core"
	"github.com/example/vectrace/internal/report"
)

// TestTable1Shape regenerates Table 1 and checks the qualitative structure
// the paper reports: which loops the compiler vectorizes, where the dynamic
// analysis finds unit-stride versus non-unit-stride potential, and the
// reduction anomaly (Percent Packed exceeding both Vec. Ops columns).
func TestTable1Shape(t *testing.T) {
	rows, err := report.Table1Ctx(context.Background(), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	byLoop := make(map[string]report.T1Row)
	for _, r := range rows {
		byLoop[r.Loop] = r
		if r.AvgConcurrency < 0 || r.UnitPct < 0 || r.UnitPct > 100.000001 ||
			r.NonUnitPct < 0 || r.NonUnitPct > 100.000001 {
			t.Fatalf("%s %s: metric out of range: %+v", r.Benchmark, r.Loop, r)
		}
		if r.UnitPct+r.NonUnitPct > 100.000001 {
			t.Fatalf("%s %s: unit+non-unit exceeds 100%%: %+v", r.Benchmark, r.Loop, r)
		}
	}
	want := len(byLoop)
	if want < 16 {
		t.Fatalf("Table 1 has %d distinct loops, want >= 16", want)
	}

	get := func(loop string) report.T1Row {
		r, ok := byLoop[loop]
		if !ok {
			t.Fatalf("missing Table 1 row %q", loop)
		}
		return r
	}

	// Streaming stencils: vectorized by the compiler AND nearly fully
	// unit-stride vectorizable dynamically.
	for _, loop := range []string{
		"StaggeredLeapfrog2.F : 342", "tml.f : 522", "update.F90 : 108",
		"solve_em.F90 : 179", "lbm.c : 186", "advx3.f : 637",
	} {
		r := get(loop)
		if r.PercentPacked < 50 {
			t.Errorf("%s: packed %.1f%%, want >= 50%% (compiler-vectorizable stencil)", loop, r.PercentPacked)
		}
		if r.UnitPct < 60 {
			t.Errorf("%s: unit vec ops %.1f%%, want >= 60%%", loop, r.UnitPct)
		}
	}

	// Indirection/control-flow loops: zero packed, but real dynamic
	// concurrency.
	for _, loop := range []string{
		"innerf.f : 3960", "ComputeNonbondedBase.h : 321",
		"step-14.cc : 715", "ssvector.cc : 983", "bbox.cpp : 894",
	} {
		r := get(loop)
		if r.PercentPacked != 0 {
			t.Errorf("%s: packed %.1f%%, want 0%% (indirection/control flow)", loop, r.PercentPacked)
		}
		if r.AvgConcurrency < 2 {
			t.Errorf("%s: avg concurrency %.1f, want >= 2", loop, r.AvgConcurrency)
		}
	}

	// milc: AoS layout — the compiler fails; roughly half the operations
	// (the memory-fed multiplies) are vectorizable only at the structure
	// stride, in small groups (paper: 45.0% at avg size 4.2), while the
	// register-resident half forms huge splat groups (paper: 55.0% at avg
	// size 2000). The small non-unit group size is the data-layout signal.
	milc := get("quark_stuff.c : 1452")
	if milc.PercentPacked != 0 {
		t.Errorf("milc: packed %.1f%%, want 0%%", milc.PercentPacked)
	}
	if milc.NonUnitPct < 40 {
		t.Errorf("milc: non-unit vec ops %.1f%%, want >= 40%% (paper: 45.0%%)", milc.NonUnitPct)
	}
	if milc.NonUnitSize < 3 || milc.NonUnitSize > 10 {
		t.Errorf("milc: non-unit avg size %.1f, want small (paper: 4.2)", milc.NonUnitSize)
	}
	if milc.UnitSize < 500 {
		t.Errorf("milc: unit avg size %.1f, want large (paper: 2000)", milc.UnitSize)
	}

	// Reduction anomaly: packed exceeds the sum of the Vec. Ops columns
	// for the two reduction loops the paper calls out.
	for _, loop := range []string{"Utilities DV.c : 1241", "vector.c : 521"} {
		r := get(loop)
		if r.PercentPacked <= r.UnitPct+r.NonUnitPct {
			t.Errorf("%s: packed %.1f%% should exceed unit %.1f%% + non-unit %.1f%% (reduction anomaly)",
				loop, r.PercentPacked, r.UnitPct, r.NonUnitPct)
		}
	}

	// bwaves back-substitution: the cross-cell recurrence caps concurrency
	// at the block width (the paper's row shows avg concurrency 8.3).
	backsub := get("block_solver.f : 176")
	if backsub.AvgConcurrency > 20 {
		t.Errorf("bwaves backsub concurrency = %.1f, want small (block-width bound, paper: 8.3)",
			backsub.AvgConcurrency)
	}

	// milc path products: packed 0, roughly even unit/non-unit split with
	// small non-unit groups (the AoS link stride).
	gauge := get("path_product.c : 49")
	if gauge.PercentPacked != 0 {
		t.Errorf("milc path product packed = %.1f, want 0", gauge.PercentPacked)
	}
	if gauge.NonUnitPct < 35 || gauge.NonUnitSize > 10 {
		t.Errorf("milc path product non-unit = %.1f%% at size %.1f, want a large share of small groups",
			gauge.NonUnitPct, gauge.NonUnitSize)
	}

	// calculix frontal update: dense rank-one updates vectorize (paper:
	// 91.5% packed) — the within-suite contrast with the 0%-packed rows.
	if front := get("FrontMtx_update.c : 207"); front.PercentPacked < 90 {
		t.Errorf("calculix frontal packed = %.1f, want >= 90 (paper: 91.5)", front.PercentPacked)
	}

	// wrf vertical columns: the compiler refuses the plane-strided walk,
	// yet the dense iteration space gives ~100%% unit potential (paper:
	// 99.8%% unit at 0-ish packed).
	vert := get("solve_em.F90 : 884")
	if vert.PercentPacked != 0 {
		t.Errorf("wrf vertical packed = %.1f, want 0", vert.PercentPacked)
	}
	if vert.UnitPct < 99 {
		t.Errorf("wrf vertical unit potential = %.1f, want ~100 (paper: 99.8)", vert.UnitPct)
	}
}

// TestTable2Shape regenerates Table 2: neither kernel is vectorized by the
// compiler; the PDE solver shows near-total unit-stride potential with huge
// partitions, while Gauss-Seidel splits between a unit-stride component
// (the row-(i-1) sums) and a dominant non-unit (wavefront) component.
func TestTable2Shape(t *testing.T) {
	rows, err := report.Table2Ctx(context.Background(), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("Table 2 has %d rows, want 2", len(rows))
	}
	gs, pde := rows[0], rows[1]

	if gs.PercentPacked != 0 || pde.PercentPacked != 0 {
		t.Errorf("packed: gs=%.1f pde=%.1f, want 0 for both", gs.PercentPacked, pde.PercentPacked)
	}
	if pde.UnitPct < 90 {
		t.Errorf("PDE unit vec ops = %.1f%%, want >= 90%% (paper: 100%%)", pde.UnitPct)
	}
	// The paper reports 820.8 for 512-wide blocks; vector size scales with
	// row width, so at our 64-wide grid a large double-digit size is the
	// equivalent shape.
	if pde.UnitSize < 50 {
		t.Errorf("PDE avg vec size = %.1f, want large (paper: 820.8 at 512-wide rows)", pde.UnitSize)
	}
	if gs.UnitPct <= 5 || gs.UnitPct >= 50 {
		t.Errorf("Gauss-Seidel unit vec ops = %.1f%%, want a minority share (paper: 22.2%%)", gs.UnitPct)
	}
	if gs.NonUnitPct <= gs.UnitPct {
		t.Errorf("Gauss-Seidel non-unit %.1f%% should dominate unit %.1f%% (paper: 77.4%% vs 22.2%%)",
			gs.NonUnitPct, gs.UnitPct)
	}
}

// TestTable3Shape regenerates Table 3: array/pointer dynamic metrics are
// identical per kernel, and Percent Packed is zero for every pointer
// version but positive for the vectorizable array versions.
func TestTable3Shape(t *testing.T) {
	rows, err := report.Table3Ctx(context.Background(), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 12 {
		t.Fatalf("Table 3 has %d rows, want 12", len(rows))
	}
	byKey := make(map[string]report.T3Row)
	for _, r := range rows {
		byKey[r.Benchmark+"/"+r.Style] = r
	}
	for _, name := range []string{"FIR", "FFT", "IIR", "LATNRM", "LMSFIR", "MULT"} {
		a := byKey[name+"/Array"]
		p := byKey[name+"/Pointer"]
		if math.Abs(a.AvgConcurrency-p.AvgConcurrency) > 1e-9 ||
			math.Abs(a.UnitPct-p.UnitPct) > 1e-9 ||
			math.Abs(a.NonUnitPct-p.NonUnitPct) > 1e-9 {
			t.Errorf("%s: dynamic metrics differ between array and pointer forms: %+v vs %+v", name, a, p)
		}
		if p.PercentPacked != 0 {
			t.Errorf("%s pointer: packed %.1f%%, want 0%%", name, p.PercentPacked)
		}
	}
	for _, name := range []string{"FIR", "FFT", "MULT"} {
		if a := byKey[name+"/Array"]; a.PercentPacked <= 0 {
			t.Errorf("%s array: packed %.1f%%, want > 0", name, a.PercentPacked)
		}
	}
	for _, name := range []string{"IIR", "LATNRM", "LMSFIR"} {
		if a := byKey[name+"/Array"]; a.PercentPacked != 0 {
			t.Errorf("%s array: packed %.1f%%, want 0 (recurrences)", name, a.PercentPacked)
		}
	}
}

// TestTable4Shape regenerates Table 4: every case study speeds up on every
// machine, and the AVX machine (4 lanes) gains at least as much as the SSE
// machines on the heavily vectorized PDE study.
func TestTable4Shape(t *testing.T) {
	rows, err := report.Table4Ctx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 15 {
		t.Fatalf("Table 4 has %d rows, want 15 (5 studies × 3 machines)", len(rows))
	}
	speedup := make(map[string]map[string]float64)
	for _, r := range rows {
		if r.Speedup <= 1.0 {
			t.Errorf("%s on %s: speedup %.2f, want > 1", r.Benchmark, r.Machine, r.Speedup)
		}
		if speedup[r.Benchmark] == nil {
			speedup[r.Benchmark] = make(map[string]float64)
		}
		speedup[r.Benchmark][r.Machine] = r.Speedup
	}
	pde := speedup["2-D PDE Solver"]
	if pde["Intel Core i7 2600K"] < pde["Intel Xeon E5630"] {
		t.Errorf("PDE: AVX speedup %.2f should be >= SSE speedup %.2f",
			pde["Intel Core i7 2600K"], pde["Intel Xeon E5630"])
	}
	// Qualitative ranking: the milc layout transformation (whole hot loop
	// vectorizes) gains more than gromacs (gather/scatter overhead remains
	// around the vectorized middle loop), on every machine.
	for _, m := range []string{"Intel Xeon E5630", "Intel Core i7 2600K", "AMD Phenom II 1100T"} {
		if speedup["433.milc"][m] <= speedup["435.gromacs"][m] {
			t.Errorf("%s: milc speedup %.2f should exceed gromacs %.2f",
				m, speedup["433.milc"][m], speedup["435.gromacs"][m])
		}
	}
}

// TestFigure1 regenerates Figure 1 at N=16 and checks the paper's counts:
// Algorithm 1 yields N-1 partitions of size N for S2, while Kumar yields
// more, smaller partitions; S1 is serial under both.
func TestFigure1(t *testing.T) {
	const n = 16
	rows, err := report.Figure1(n)
	if err != nil {
		t.Fatal(err)
	}
	idx := make(map[string]report.FigureRow)
	for _, r := range rows {
		idx[r.Analysis+"/"+r.Statement] = r
	}
	a1s2 := idx["Algorithm 1/S2"]
	if a1s2.Partitions != n-1 || a1s2.MaxSize != n {
		t.Fatalf("Algorithm 1 S2: %d partitions max %d, want %d of size %d",
			a1s2.Partitions, a1s2.MaxSize, n-1, n)
	}
	kumarS2 := idx["Kumar/S2"]
	if kumarS2.Partitions <= a1s2.Partitions {
		t.Fatalf("Kumar S2 partitions = %d, want more than Algorithm 1's %d",
			kumarS2.Partitions, a1s2.Partitions)
	}
	a1s1 := idx["Algorithm 1/S1"]
	if a1s1.Partitions != n-1 || a1s1.MaxSize != 1 {
		t.Fatalf("Algorithm 1 S1: %d partitions max %d, want %d singletons",
			a1s1.Partitions, a1s1.MaxSize, n-1)
	}
}

// TestFigure2 regenerates Figure 2 at N=16: Algorithm 1 puts each
// statement's instances into one partition, while the Larus loop-level
// model fragments them.
func TestFigure2(t *testing.T) {
	const n = 16
	rows, err := report.Figure2(n)
	if err != nil {
		t.Fatal(err)
	}
	idx := make(map[string]report.FigureRow)
	for _, r := range rows {
		idx[r.Analysis+"/"+r.Statement] = r
	}
	for _, s := range []string{"S1", "S2"} {
		a1 := idx["Algorithm 1/"+s]
		if a1.Partitions != 1 || a1.MaxSize != n-1 {
			t.Fatalf("Algorithm 1 %s: %d partitions max %d, want 1 partition of %d", s, a1.Partitions, a1.MaxSize, n-1)
		}
		larus := idx["Larus/"+s]
		if larus.Partitions <= 1 {
			t.Fatalf("Larus %s: %d partitions, want fragmentation (> 1)", s, larus.Partitions)
		}
	}
}

package main

import (
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"testing"
	"time"

	"github.com/example/vectrace/internal/kernels"
	"github.com/example/vectrace/internal/pipeline"
)

// TestLiveCommandsHeap is the memory-regression smoke for the commands that
// run live without a region to bound them, measured as the Go heap peak
// of the command in-process on GaussSeidel(64,T) at T and 4T (the CI job
// runs it with VECTRACE_MEM_SMOKE=1):
//
//   - rank and `analyze -line 17 -instance 0 -baselines` analyze regions
//     whose size does not depend on T, so their peak at 4T stays within
//     1.5× of the peak at T;
//   - `analyze` of the whole program and annotate hold the stream kernel's
//     per-instance arrays, so their peak grows with the candidate fp-ops,
//     by at most 128 B per added fp-op. Holding the trace and building its
//     graph costs about 930 B per added fp-op.
func TestLiveCommandsHeap(t *testing.T) {
	if os.Getenv("VECTRACE_MEM_SMOKE") == "" {
		t.Skip("set VECTRACE_MEM_SMOKE=1 to run the memory-regression smoke")
	}
	const steps = 12
	dir := t.TempDir()
	type program struct {
		file  string
		fpOps int64
	}
	prog := func(T int) program {
		k := kernels.GaussSeidel(64, T)
		if k.LineOf("@i-loop") != 17 {
			t.Fatalf("@i-loop moved to line %d", k.LineOf("@i-loop"))
		}
		file := filepath.Join(dir, "gs"+strconv.Itoa(T)+".c")
		if err := os.WriteFile(file, []byte(k.Source), 0o644); err != nil {
			t.Fatal(err)
		}
		mod, err := pipeline.Compile(file, k.Source)
		if err != nil {
			t.Fatal(err)
		}
		res, err := pipeline.Run(mod, false)
		if err != nil {
			t.Fatal(err)
		}
		return program{file, res.FPOps}
	}
	small, large := prog(steps), prog(4*steps)
	devNull, err := os.Open(os.DevNull)
	if err != nil {
		t.Fatal(err)
	}
	defer devNull.Close()
	peak := func(p program, args []string) uint64 {
		args = append([]string{args[0], p.file}, args[1:]...)
		runCmd := func() {
			old := os.Stdout
			os.Stdout = devNull
			err := run(args)
			os.Stdout = old
			if err != nil {
				t.Fatalf("%v: %v", args, err)
			}
		}
		runCmd() // warm the pools
		return peakHeap(runCmd)
	}
	for _, tc := range []struct {
		name string
		args []string
		flat bool // region-bounded: flat in T; otherwise bounded per fp-op
	}{
		{"rank", []string{"rank"}, true},
		{"baselines", []string{"analyze", "-line", "17", "-instance", "0", "-baselines"}, true},
		{"whole-program", []string{"analyze", "-workers", "1"}, false},
		{"annotate", []string{"annotate"}, false},
	} {
		a, b := peak(small, tc.args), peak(large, tc.args)
		perOp := (float64(b) - float64(a)) / float64(large.fpOps-small.fpOps)
		t.Logf("%s: heap peak above baseline %d B at T=%d, %d B at T=%d (%.2f×, %.1f B per added fp-op)",
			tc.name, a, steps, b, 4*steps, float64(b)/float64(max(a, 1)), perOp)
		switch {
		case tc.flat && float64(b) > 1.5*float64(a):
			t.Errorf("%s: heap peak grew %.2f× for 4× program length", tc.name, float64(b)/float64(max(a, 1)))
		case !tc.flat && perOp > 128:
			t.Errorf("%s: heap peak grew %.1f B per added candidate fp-op, want ≤ 128", tc.name, perOp)
		}
	}
}

// peakHeap runs f while sampling the live heap (HeapAlloc), returning the
// observed peak growth over the post-GC baseline before the run. Sampling
// is coarse (every 200µs): it resolves growth that tracks program length,
// not small constant differences.
func peakHeap(f func()) uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	base := ms.HeapAlloc
	peak := base
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				var m runtime.MemStats
				runtime.ReadMemStats(&m)
				if m.HeapAlloc > peak {
					peak = m.HeapAlloc
				}
				time.Sleep(200 * time.Microsecond)
			}
		}
	}()
	f()
	close(stop)
	wg.Wait()
	var end runtime.MemStats
	runtime.ReadMemStats(&end)
	if end.HeapAlloc > peak {
		peak = end.HeapAlloc
	}
	return peak - base
}

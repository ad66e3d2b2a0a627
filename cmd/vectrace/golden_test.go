package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"github.com/example/vectrace/internal/kernels"
)

var update = flag.Bool("update", false, "rewrite golden files under testdata/golden")

// The CLI goldens pin the exact bytes — stdout, stderr and exit status —
// of every analysis command that is not a single-region analysis: whole-
// program analyze (plain, -relax-reductions, -int-ops, -baselines, from a
// program and from VTR1/VTR2 trace files), -baselines on one region,
// annotate and rank. Regenerate deliberately with:
//
//	go test ./cmd/vectrace -run TestCLIGolden -update

// goldenInput is one program the goldens run the commands over, with the
// loop the region cases select.
type goldenInput struct {
	name, src string
	line      int // target loop's source line
	instance  int // a second region index the -baselines cases select
}

func goldenInputs(t *testing.T) []goldenInput {
	t.Helper()
	sample, err := os.ReadFile(filepath.Join("..", "..", "examples", "sample.c"))
	if err != nil {
		t.Fatal(err)
	}
	calls, err := os.ReadFile(filepath.Join("testdata", "calls.c"))
	if err != nil {
		t.Fatal(err)
	}
	var sphinx kernels.Kernel
	for _, b := range kernels.SPEC() {
		if b.Name == "482.sphinx3" {
			sphinx = b.Kernel
		}
	}
	gs := kernels.GaussSeidel(16, 3)
	fir := kernels.FIRPair(32, 8).Pointer
	return []goldenInput{
		{name: "sample", src: string(sample), line: 10},
		{name: "calls", src: string(calls), line: 26, instance: 2},
		{name: "sphinx3", src: sphinx.Source, line: sphinx.LineOf("@dist"), instance: 5},
		{name: "gauss-seidel", src: gs.Source, line: gs.LineOf("@i-loop"), instance: 2},
		{name: "fir-pointer", src: fir.Source, line: fir.LineOf("@hot")},
	}
}

// runCLI runs the command line in-process and returns what the vectrace
// binary would print and its exit status: main prints a returned error
// to stderr and maps it through exitCode.
func runCLI(t *testing.T, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	oldOut, oldErr := os.Stdout, os.Stderr
	outR, outW, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	errR, errW, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	var outBuf, errBuf bytes.Buffer
	done := make(chan struct{}, 2)
	go func() { io.Copy(&outBuf, outR); done <- struct{}{} }()
	go func() { io.Copy(&errBuf, errR); done <- struct{}{} }()
	os.Stdout, os.Stderr = outW, errW
	runErr := run(args)
	os.Stdout, os.Stderr = oldOut, oldErr
	outW.Close()
	errW.Close()
	<-done
	<-done
	if runErr != nil {
		fmt.Fprintln(&errBuf, "vectrace:", runErr)
		code = exitCode(runErr)
	}
	return outBuf.String(), errBuf.String(), code
}

func TestCLIGolden(t *testing.T) {
	for _, in := range goldenInputs(t) {
		t.Run(in.name, func(t *testing.T) {
			dir := t.TempDir()
			file := filepath.Join(dir, in.name+".c")
			if err := os.WriteFile(file, []byte(in.src), 0o644); err != nil {
				t.Fatal(err)
			}
			vtr1 := filepath.Join(dir, "t1.vtr")
			vtr2 := filepath.Join(dir, "t2.vtr")
			for _, rec := range [][]string{
				{"record", file, "-o", vtr1},
				{"record", file, "-o", vtr2, "-format", "vtr2", "-block", "4096"},
			} {
				if _, stderr, code := runCLI(t, rec...); code != 0 {
					t.Fatalf("%v: exit %d: %s", rec, code, stderr)
				}
			}
			line := strconv.Itoa(in.line)
			inst := strconv.Itoa(in.instance)
			cases := []struct {
				name string
				args []string
			}{
				{"analyze", []string{"analyze", file}},
				{"analyze-relax", []string{"analyze", file, "-relax-reductions"}},
				{"analyze-intops", []string{"analyze", file, "-int-ops"}},
				{"analyze-baselines", []string{"analyze", file, "-baselines"}},
				{"analyze-vtr1", []string{"analyze", file, "-trace", vtr1}},
				{"analyze-vtr2-relax", []string{"analyze", file, "-trace", vtr2, "-relax-reductions"}},
				{"baselines", []string{"analyze", file, "-line", line, "-instance", "0", "-baselines"}},
				{"baselines-k", []string{"analyze", file, "-line", line, "-instance", inst, "-baselines", "-int-ops"}},
				{"baselines-relax", []string{"analyze", file, "-line", line, "-baselines", "-relax-reductions"}},
				{"baselines-vtr1", []string{"analyze", file, "-trace", vtr1, "-line", line, "-instance", "0", "-baselines"}},
				{"baselines-vtr2", []string{"analyze", file, "-trace", vtr2, "-line", line, "-instance", inst, "-baselines"}},
				{"baselines-range", []string{"analyze", file, "-line", line, "-instance", "999", "-baselines"}},
				{"baselines-vtr2-range", []string{"analyze", file, "-trace", vtr2, "-line", line, "-instance", "999", "-baselines"}},
				{"baselines-noloop", []string{"analyze", file, "-line", "3", "-baselines"}},
				{"annotate", []string{"annotate", file}},
				{"annotate-relax", []string{"annotate", file, "-relax-reductions"}},
				{"rank", []string{"rank", file}},
				{"rank-t1", []string{"rank", file, "-threshold", "1"}},
			}
			for _, tc := range cases {
				stdout, stderr, code := runCLI(t, tc.args...)
				// Temp paths vary per run; goldens name the files by role.
				r := strings.NewReplacer(dir+string(filepath.Separator), "")
				got := fmt.Sprintf("exit %d\n-- stdout --\n%s-- stderr --\n%s", code, r.Replace(stdout), r.Replace(stderr))
				checkGolden(t, filepath.Join(in.name, tc.name+".golden"), got)
			}
		})
	}
}

// checkGolden compares got against testdata/golden/<name>, rewriting the
// file instead under -update.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", "golden", name)
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	if string(want) != got {
		t.Errorf("%s differs from its golden:\n--- want\n%s\n--- got\n%s", name, want, got)
	}
}

package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const sampleProgram = `
double a[64];
double b[64];
double s;

void main() {
  int i;
  for (i = 0; i < 64; i++) {
    a[i] = 0.5 * i;
  }
  for (i = 0; i < 64; i++) {
    b[i] = 2.0 * a[i] + 1.0;
  }
  for (i = 0; i < 64; i++) {
    s = s + b[i];
  }
  print(s);
}
`

// writeSample writes the sample program to a temp file and returns its path.
func writeSample(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	path := filepath.Join(dir, "sample.c")
	if err := os.WriteFile(path, []byte(sampleProgram), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// capture runs the CLI entry with stdout redirected.
func capture(t *testing.T, args ...string) (string, error) {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	runErr := run(args)
	w.Close()
	os.Stdout = old
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(r); err != nil {
		t.Fatal(err)
	}
	return buf.String(), runErr
}

func TestRunCommand(t *testing.T) {
	out, err := capture(t, "run", writeSample(t))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "instructions") {
		t.Errorf("missing stats line:\n%s", out)
	}
	// The program prints one value: sum of b = sum(2*0.5*i + 1) = 64 + sum(i).
	if !strings.Contains(out, "2080") {
		t.Errorf("expected printed sum 2080 in output:\n%s", out)
	}
}

func TestIRCommand(t *testing.T) {
	out, err := capture(t, "ir", writeSample(t))
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"func main", "loop.begin", "mul.f64", "store.f64"} {
		if !strings.Contains(out, want) {
			t.Errorf("IR dump missing %q", want)
		}
	}
}

func TestProfileCommand(t *testing.T) {
	out, err := capture(t, "profile", writeSample(t), "-threshold", "5")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "cycles%") || !strings.Contains(out, "main") {
		t.Errorf("profile output wrong:\n%s", out)
	}
}

func TestVectorizeCommand(t *testing.T) {
	out, err := capture(t, "vectorize", writeSample(t))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "VECTORIZED") {
		t.Errorf("expected at least one vectorized loop:\n%s", out)
	}
	if !strings.Contains(out, "(reduction)") {
		t.Errorf("expected the sum loop to vectorize as a reduction:\n%s", out)
	}
}

func TestAnalyzeCommand(t *testing.T) {
	path := writeSample(t)
	out, err := capture(t, "analyze", path, "-line", "11", "-baselines")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "unit-stride") || !strings.Contains(out, "kumar") {
		t.Errorf("analyze output wrong:\n%s", out)
	}
	// Whole-program analysis without -line.
	out, err = capture(t, "analyze", path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "fp-ops") {
		t.Errorf("whole-program analyze output wrong:\n%s", out)
	}
}

// TestAnalyzeWorkersFlag pins the -workers determinism contract at the CLI
// boundary: the report printed by a 4-worker pool must be byte-identical to
// the sequential (-workers 1) run.
func TestAnalyzeWorkersFlag(t *testing.T) {
	path := writeSample(t)
	seq, err := capture(t, "analyze", path, "-line", "11", "-workers", "1")
	if err != nil {
		t.Fatal(err)
	}
	par, err := capture(t, "analyze", path, "-line", "11", "-workers", "4")
	if err != nil {
		t.Fatal(err)
	}
	if seq != par {
		t.Fatalf("parallel analyze differs from sequential:\nseq:\n%s\npar:\n%s", seq, par)
	}
}

// TestAnalyzeAllRegions exercises -instance -1: every dynamic execution of
// the loop is analyzed and printed with a region banner.
func TestAnalyzeAllRegions(t *testing.T) {
	path := writeSample(t)
	out, err := capture(t, "analyze", path, "-line", "11", "-instance", "-1", "-workers", "2")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "== region 1/1:") {
		t.Errorf("missing region banner:\n%s", out)
	}
	if !strings.Contains(out, "unit-stride") {
		t.Errorf("missing per-region report body:\n%s", out)
	}
}

func TestRankCommand(t *testing.T) {
	out, err := capture(t, "rank", writeSample(t), "-threshold", "5")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "score") {
		t.Errorf("rank output wrong:\n%s", out)
	}
}

func TestTraceCommand(t *testing.T) {
	path := writeSample(t)
	outFile := filepath.Join(t.TempDir(), "t.vtr")
	out, err := capture(t, "trace", path, "-o", outFile)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "wrote") {
		t.Errorf("trace output wrong:\n%s", out)
	}
	data, err := os.ReadFile(outFile)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) < 4 || string(data[:4]) != "VTR1" {
		t.Error("trace file missing magic header")
	}
}

func TestAnnotateCommand(t *testing.T) {
	out, err := capture(t, "annotate", writeSample(t))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, ";; fp×") {
		t.Errorf("annotated source missing annotations:\n%s", out)
	}
	if !strings.Contains(out, "reduction") {
		t.Errorf("sum line should carry the reduction tag:\n%s", out)
	}
	// Every source line appears.
	if !strings.Contains(out, "void main()") {
		t.Error("source text missing from the listing")
	}
}

func TestTreeCommand(t *testing.T) {
	out, err := capture(t, "tree", writeSample(t))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "verdict") || !strings.Contains(out, "vectorized") {
		t.Errorf("tree output wrong:\n%s", out)
	}
	if strings.Count(out, "main:") != 3 {
		t.Errorf("expected 3 loops in the tree:\n%s", out)
	}
}

// TestAnalyzeFromSavedTrace verifies the offline workflow: the report from
// a decoded on-disk trace is byte-identical to the live-instrumentation
// report.
func TestAnalyzeFromSavedTrace(t *testing.T) {
	path := writeSample(t)
	traceFile := filepath.Join(t.TempDir(), "s.vtr")
	if _, err := capture(t, "trace", path, "-o", traceFile); err != nil {
		t.Fatal(err)
	}
	live, err := capture(t, "analyze", path, "-line", "11")
	if err != nil {
		t.Fatal(err)
	}
	offline, err := capture(t, "analyze", path, "-line", "11", "-trace", traceFile)
	if err != nil {
		t.Fatal(err)
	}
	if live != offline {
		t.Fatalf("offline analysis differs from live:\nlive:\n%s\noffline:\n%s", live, offline)
	}
}

func TestSpeedupCommand(t *testing.T) {
	dir := t.TempDir()
	orig := filepath.Join(dir, "orig.c")
	trans := filepath.Join(dir, "trans.c")
	// Column-major walk vs row-major walk of the same computation.
	if err := os.WriteFile(orig, []byte(`
double A[32][32];
void main() {
  int i;
  int j;
  for (i = 0; i < 32; i++) { for (j = 0; j < 32; j++) { A[i][j] = 0.01 * (i + j); } }
  for (j = 0; j < 32; j++) {
    for (i = 0; i < 32; i++) { A[i][j] = A[i][j] * 2.0; }
  }
  print(A[3][7]);
}
`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(trans, []byte(`
double A[32][32];
void main() {
  int i;
  int j;
  for (i = 0; i < 32; i++) { for (j = 0; j < 32; j++) { A[i][j] = 0.01 * (i + j); } }
  for (i = 0; i < 32; i++) {
    for (j = 0; j < 32; j++) { A[i][j] = A[i][j] * 2.0; }
  }
  print(A[3][7]);
}
`), 0o644); err != nil {
		t.Fatal(err)
	}
	out, err := capture(t, "speedup", orig, trans)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "outputs match") || !strings.Contains(out, "speedup") {
		t.Errorf("speedup output wrong:\n%s", out)
	}
	// All three machines present.
	for _, m := range []string{"Xeon", "2600K", "Phenom"} {
		if !strings.Contains(out, m) {
			t.Errorf("missing machine %s:\n%s", m, out)
		}
	}

	// Non-equivalent versions are rejected.
	bad := filepath.Join(dir, "bad.c")
	if err := os.WriteFile(bad, []byte(`
void main() { print(42.0); }
`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := capture(t, "speedup", orig, bad); err == nil || !strings.Contains(err.Error(), "not equivalent") {
		t.Errorf("non-equivalent versions should be rejected, got %v", err)
	}
}

func TestUsageErrors(t *testing.T) {
	if err := run(nil); err == nil {
		t.Error("no-args should error")
	}
	if err := run([]string{"frobnicate", writeSample(t)}); err == nil {
		t.Error("unknown command should error")
	}
	if err := run([]string{"run", "/nonexistent.c"}); err == nil {
		t.Error("missing file should error")
	}
}

func TestCompileErrorSurfaces(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "bad.c")
	if err := os.WriteFile(path, []byte("void main() { x = 1; }"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"run", path}); err == nil || !strings.Contains(err.Error(), "undefined") {
		t.Errorf("compile error not surfaced: %v", err)
	}
}

// TestExitCodes pins the scripting contract: usage errors exit 2, analysis
// errors exit 1, success exits 0.
func TestExitCodes(t *testing.T) {
	path := writeSample(t)
	cases := []struct {
		name string
		args []string
		want int
	}{
		{"success", []string{"profile", path}, 0},
		{"no subcommand", nil, 2},
		{"unknown subcommand", []string{"frobnicate"}, 2},
		{"unknown flag", []string{"analyze", path, "-no-such-flag"}, 2},
		{"negative tile", []string{"analyze", path, "-line", "8", "-tile", "-1"}, 2},
		{"tile flag removed", []string{"analyze", path, "-line", "8", "-tile", "4"}, 2},
		{"block on analyze", []string{"analyze", path, "-line", "8", "-block", "7"}, 2},
		{"compress on analyze", []string{"analyze", path, "-line", "8", "-compress", "none"}, 2},
		{"scan-workers flag removed", []string{"analyze", path, "-line", "8", "-scan-workers", "2"}, 2},
		{"trace-format flag removed", []string{"analyze", path, "-line", "8", "-trace-format", "vtr1"}, 2},
		{"record block and compress", []string{"record", path, "-o", filepath.Join(t.TempDir(), "s.vtr"),
			"-format", "vtr2", "-block", "4096", "-compress", "none"}, 0},
		{"baselines over all instances", []string{"analyze", path, "-line", "8", "-instance", "-1", "-baselines"}, 2},
		{"missing file", []string{"profile", filepath.Join(t.TempDir(), "absent.c")}, 1},
		{"no loop on line", []string{"analyze", path, "-line", "4"}, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := capture(t, tc.args...)
			got := 0
			if err != nil {
				got = exitCode(err)
			}
			if got != tc.want {
				t.Fatalf("args %v: exit code %d (err %v), want %d", tc.args, got, err, tc.want)
			}
		})
	}
}

// TestCorruptTraceDiagnostics checks that analyzing a damaged trace file
// exits with an analysis error naming the byte offset and region index.
func TestCorruptTraceDiagnostics(t *testing.T) {
	path := writeSample(t)
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "s.vtr")
	if _, err := capture(t, "record", path, "-o", tracePath); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(tracePath, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = capture(t, "analyze", path, "-trace", tracePath, "-line", "8", "-instance", "-1")
	if err == nil {
		t.Fatal("truncated trace analyzed without error")
	}
	if exitCode(err) != 1 {
		t.Fatalf("exit code %d, want 1", exitCode(err))
	}
	for _, want := range []string{"byte offset", "scanning region"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("error %q does not contain %q", err, want)
		}
	}
}

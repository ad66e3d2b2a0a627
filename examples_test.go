package vectrace

import (
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the example goldens under examples/testdata")

var examples = []string{"expert-workflow", "gauss-seidel", "layout-transform", "pointer-vs-array", "quickstart"}

// TestExamplesGolden builds every example and compares its stdout with
// examples/testdata/<name>.golden byte for byte. Regenerate deliberately
// with:
//
//	go test . -run TestExamplesGolden -update
func TestExamplesGolden(t *testing.T) {
	bin := t.TempDir()
	build := exec.Command("go", append([]string{"build", "-o", bin + string(filepath.Separator)}, prefixed(examples)...)...)
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	for _, name := range examples {
		t.Run(name, func(t *testing.T) {
			got, err := exec.Command(filepath.Join(bin, name)).Output()
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			path := filepath.Join("examples", "testdata", name+".golden")
			if *update {
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden file (run with -update to create): %v", err)
			}
			if string(want) != string(got) {
				t.Errorf("%s output differs from its golden:\n--- want\n%s\n--- got\n%s", name, want, got)
			}
		})
	}
}

func prefixed(names []string) []string {
	out := make([]string, len(names))
	for i, n := range names {
		out[i] = "./examples/" + n
	}
	return out
}

package vectrace

// arch_test guards the shape of the shipped binaries: the graph reference
// (internal/reference) and the whole-trace recorder are test references,
// and nothing the binaries link may reach them again. The symbol check
// builds the binaries, so it is skipped under -short.

import (
	"go/parser"
	"go/token"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

func TestArchitectureBinarySymbols(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the binaries")
	}
	forbidden := map[string][]string{
		"vectrace":  {"internal/reference.", "internal/pipeline.TraceCtxOpts"},
		"vecbench":  {"internal/reference."},
		"vectraced": {"internal/reference."},
	}
	dir := t.TempDir()
	for cmd, syms := range forbidden {
		bin := filepath.Join(dir, cmd)
		if out, err := exec.Command("go", "build", "-o", bin, "./cmd/"+cmd).CombinedOutput(); err != nil {
			t.Fatalf("go build ./cmd/%s: %v\n%s", cmd, err, out)
		}
		out, err := exec.Command("go", "tool", "nm", bin).Output()
		if err != nil {
			t.Fatalf("go tool nm %s: %v", cmd, err)
		}
		for _, line := range strings.Split(string(out), "\n") {
			fields := strings.Fields(line)
			if len(fields) == 0 {
				continue
			}
			name := fields[len(fields)-1]
			for _, sym := range syms {
				if strings.Contains(name, sym) {
					t.Errorf("%s links %s", cmd, name)
				}
			}
		}
	}
}

// TestTestprogImportedOnlyByTests: internal/testprog holds test fixtures
// and the in-memory trace helpers, and internal/reference the analysis
// oracle, so no non-test package outside the two may import either.
func TestTestprogImportedOnlyByTests(t *testing.T) {
	testOnly := map[string]bool{
		"github.com/example/vectrace/internal/testprog":  true,
		"github.com/example/vectrace/internal/reference": true,
	}
	err := filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != "." && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if dir := filepath.Dir(path); !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") ||
			dir == filepath.Join("internal", "testprog") || dir == filepath.Join("internal", "reference") {
			return nil
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		for _, imp := range f.Imports {
			if p, _ := strconv.Unquote(imp.Path.Value); testOnly[p] {
				t.Errorf("%s imports %s", path, p)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

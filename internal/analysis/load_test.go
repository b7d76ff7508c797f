package analysis

import (
	"os"
	"path/filepath"
	"testing"
)

// TestLoaderChecksTestImportsFirst loads a module whose package a has
// an in-package test helper returning package b's value as a *c.T,
// where b is listed after a: go list -deps orders targets by their
// non-test imports (c, a, b). Checked in that order, a's test files
// would read b from export data and c twice, and the loader would
// reject valid code with "cannot use … (value of type *c.T) as *c.T".
func TestLoaderChecksTestImportsFirst(t *testing.T) {
	if testing.Short() {
		t.Skip("runs go list -export on a scratch module")
	}
	dir := t.TempDir()
	files := map[string]string{
		"go.mod":      "module example.test/loadorder\n\ngo 1.24\n",
		"c/c.go":      "package c\n\ntype T struct{ N int }\n\nfunc New() *T { return &T{N: 1} }\n",
		"b/b.go":      "package b\n\nimport \"example.test/loadorder/c\"\n\nfunc Make() *c.T { return c.New() }\n",
		"a/a.go":      "package a\n\nimport \"example.test/loadorder/c\"\n\nfunc Use(t *c.T) int { return t.N }\n",
		"a/a_test.go": "package a\n\nimport (\n\t\"testing\"\n\n\t\"example.test/loadorder/b\"\n\t\"example.test/loadorder/c\"\n)\n\nfunc made() *c.T { return b.Make() }\n\nfunc TestUse(t *testing.T) {\n\tif Use(made()) != 1 {\n\t\tt.Fatal(\"Use\")\n\t}\n}\n",
	}
	for name, src := range files {
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	pkgs, err := (&Loader{Dir: dir, Tests: true}).Load("./...")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 3 {
		t.Fatalf("loaded %d packages, want a, b and c", len(pkgs))
	}
}

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
	files := map[string]string{
		"go.mod":      "module example.test/loadorder\n\ngo 1.24\n",
		"c/c.go":      "package c\n\ntype T struct{ N int }\n\nfunc New() *T { return &T{N: 1} }\n",
		"b/b.go":      "package b\n\nimport \"example.test/loadorder/c\"\n\nfunc Make() *c.T { return c.New() }\n",
		"a/a.go":      "package a\n\nimport \"example.test/loadorder/c\"\n\nfunc Use(t *c.T) int { return t.N }\n",
		"a/a_test.go": "package a\n\nimport (\n\t\"testing\"\n\n\t\"example.test/loadorder/b\"\n\t\"example.test/loadorder/c\"\n)\n\nfunc made() *c.T { return b.Make() }\n\nfunc TestUse(t *testing.T) {\n\tif Use(made()) != 1 {\n\t\tt.Fatal(\"Use\")\n\t}\n}\n",
	}
	pkgs, err := (&Loader{Dir: writeModule(t, files), Tests: true}).Load("./...")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 3 {
		t.Fatalf("loaded %d packages, want a, b and c", len(pkgs))
	}
}

// TestLoaderSourceChecksBridges loads one package, s, whose external
// test passes an s.W through package p, which imports s and is no
// target. Read from export data, p would bring an s.W of its own, and
// the loader would reject valid code with "cannot use s.W{…} (value of
// struct type s.W) as s.W value".
func TestLoaderSourceChecksBridges(t *testing.T) {
	if testing.Short() {
		t.Skip("runs go list -export on a scratch module")
	}
	files := map[string]string{
		"go.mod":      "module example.test/bridge\n\ngo 1.24\n",
		"s/s.go":      "package s\n\ntype W struct{ N int }\n",
		"p/p.go":      "package p\n\nimport \"example.test/bridge/s\"\n\nfunc Wrap(w s.W) []s.W { return []s.W{w} }\n",
		"s/s_test.go": "package s_test\n\nimport (\n\t\"testing\"\n\n\t\"example.test/bridge/p\"\n\t\"example.test/bridge/s\"\n)\n\nfunc TestWrap(t *testing.T) {\n\tif len(p.Wrap(s.W{N: 1})) != 1 {\n\t\tt.Fatal(\"Wrap\")\n\t}\n}\n",
	}
	pkgs, err := (&Loader{Dir: writeModule(t, files), Tests: true}).Load("./s")
	if err != nil {
		t.Fatal(err)
	}
	var paths []string
	for _, p := range pkgs {
		paths = append(paths, p.Path)
	}
	if len(paths) != 2 || paths[0] != "example.test/bridge/s" || paths[1] != "example.test/bridge/s_test" {
		t.Fatalf("loaded %v, want s and s_test alone", paths)
	}
}

// writeModule writes files, by slash path, under a fresh directory and
// returns it.
func writeModule(t *testing.T, files map[string]string) string {
	t.Helper()
	dir := t.TempDir()
	for name, src := range files {
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

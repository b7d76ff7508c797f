package analysis

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
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
// struct type s.W) as s.W value". p is loaded from source, unreported.
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
	if got := reportedPaths(pkgs); !slices.Equal(got, []string{"example.test/bridge/s", "example.test/bridge/s_test"}) {
		t.Fatalf("reported %v, want s and s_test alone", got)
	}
}

// TestLoaderLoadsNestedModules loads a module with a nested module
// under it, outside testdata, and one inside testdata: the nested
// module's package and its tests are loaded against the outer module's
// source-checked packages, marked Nested and never reported; the one
// in testdata is not loaded at all.
func TestLoaderLoadsNestedModules(t *testing.T) {
	if testing.Short() {
		t.Skip("runs go list -export on a scratch module")
	}
	files := map[string]string{
		"go.mod":              "module example.test/outer\n\ngo 1.24\n",
		"a/a.go":              "package a\n\ntype T struct{ N int }\n",
		"b/go.mod":            "module example.test/outer/b\n\ngo 1.24\n\nrequire example.test/outer v0.0.0\n\nreplace example.test/outer => ../\n",
		"b/b.go":              "package b\n\nimport \"example.test/outer/a\"\n\nfunc N(t a.T) int { return t.N }\n",
		"b/b_test.go":         "package b\n\nimport (\n\t\"testing\"\n\n\t\"example.test/outer/a\"\n)\n\nfunc TestN(t *testing.T) {\n\tif N(a.T{N: 1}) != 1 {\n\t\tt.Fatal(\"N\")\n\t}\n}\n",
		"a/testdata/m/go.mod": "module example.test/m\n\ngo 1.24\n",
		"a/testdata/m/m.go":   "package m\n\nfunc broken() int { return \"not an int\" }\n",
	}
	pkgs, err := (&Loader{Dir: writeModule(t, files)}).Load("./...")
	if err != nil {
		t.Fatal(err)
	}
	var nested []string
	for _, p := range pkgs {
		if p.Nested {
			nested = append(nested, fmt.Sprintf("%s reported=%v files=%d", p.Path, p.Reported, len(p.Files)))
		}
	}
	if want := []string{"example.test/outer/b reported=false files=2"}; !slices.Equal(nested, want) {
		t.Fatalf("nested packages %v, want %v", nested, want)
	}
	if got := reportedPaths(pkgs); !slices.Equal(got, []string{"example.test/outer/a"}) {
		t.Fatalf("reported %v, want a alone", got)
	}
}

// TestLoaderPatternsOnlyChooseReports holds one package's run to the
// findings `./...` reports in its directory. The loader once checked
// from source only the pattern's packages and their importers, so a
// compute root's calls into other in-module packages met no source:
// `approxlint ./internal/mapreduce/` reported 23 purity findings, and
// `./internal/approx/` 4, that `./...` does not.
func TestLoaderPatternsOnlyChooseReports(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and typechecks the whole repository three times")
	}
	lint := func(pattern string) []Diagnostic {
		t.Helper()
		pkgs, err := (&Loader{Dir: "../..", Tests: true}).Load(pattern)
		if err != nil {
			t.Fatal(err)
		}
		return RunWithOptions(pkgs, All(), Options{StaleIgnores: true})
	}
	all := lint("./...")
	for _, dir := range []string{"internal/mapreduce", "internal/approx"} {
		abs, err := filepath.Abs(filepath.Join("../..", dir))
		if err != nil {
			t.Fatal(err)
		}
		var want []Diagnostic
		for _, d := range all {
			if filepath.Dir(d.Pos.Filename) == abs {
				want = append(want, d)
			}
		}
		if got := lint("./" + dir + "/"); !slices.Equal(got, want) {
			t.Errorf("%s: reported %v, want the %d finding(s) ./... reports there: %v", dir, got, len(want), want)
		}
	}
}

// reportedPaths returns the import paths of the reported packages.
func reportedPaths(pkgs []*Package) []string {
	var out []string
	for _, p := range pkgs {
		if p.Reported {
			out = append(out, p.Path)
		}
	}
	return out
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

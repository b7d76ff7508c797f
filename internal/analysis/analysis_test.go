package analysis

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// fixtureDep is a sibling fixture package a fixture imports; it is
// typechecked first and analyzed together with the main fixture so the
// whole-program analyzers see across the package boundary.
type fixtureDep struct{ dir, path string }

// fixtureCases maps each testdata/src directory to the import path its
// package poses as. virtualclock only fires inside simulator packages,
// so that fixture borrows a simulator path; the lockheld fixture poses
// as the job service for the same reason. The sharedstate fixture holds
// purity's body checks inside one package; the purity fixture spans two
// packages, with the violation in the dep package, one import away from
// the compute root.
var fixtureCases = []struct {
	dir, path string
	deps      []fixtureDep
}{
	{dir: "virtualclock", path: "approxhadoop/internal/cluster"},
	{dir: "seededrand", path: "example.test/workload"},
	{dir: "nofloateq", path: "example.test/floats"},
	{dir: "nopanic", path: "example.test/lib"},
	{dir: "errcheck", path: "example.test/errs"},
	{dir: "ignore", path: "example.test/ignored"},
	{dir: "sharedstate", path: "example.test/compute"},
	{dir: "purity", path: "example.test/purity",
		deps: []fixtureDep{{dir: "purity/dep", path: "example.test/purity/dep"}}},
	{dir: "hotpath", path: "example.test/hot"},
	{dir: "lockheld", path: "approxhadoop/internal/jobserver"},
}

// wantRe matches expected-diagnostic comments in fixtures:
//
//	expr // want: analyzer[ analyzer...]      (on this line)
//	// want-above: analyzer                   (on the previous line)
var wantRe = regexp.MustCompile(`//\s*want(-above)?:\s*([a-z ]+)$`)

// expectedDiags scans a fixture file for want comments and returns the
// expected "line:analyzer" keys.
func expectedDiags(t *testing.T, path string) map[string]int {
	t.Helper()
	src, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int{}
	for i, line := range strings.Split(string(src), "\n") {
		m := wantRe.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		ln := i + 1
		if m[1] == "-above" {
			ln--
		}
		for _, name := range strings.Fields(m[2]) {
			want[fmt.Sprintf("%d:%s", ln, name)]++
		}
	}
	return want
}

// parseFixtureDir parses the .go files directly inside
// testdata/src/<dir> and merges their want comments into want.
func parseFixtureDir(t *testing.T, fset *token.FileSet, dir string, want map[string]int) []*ast.File {
	t.Helper()
	full := filepath.Join("testdata", "src", dir)
	entries, err := os.ReadDir(full)
	if err != nil {
		t.Fatal(err)
	}
	var files []*ast.File
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		name := filepath.Join(full, e.Name())
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, f)
		for k, n := range expectedDiags(t, name) {
			want[k] += n
		}
	}
	return files
}

// fixtureImports lists the stdlib packages fixtures may import.
var fixtureImports = []string{"time", "math/rand", "fmt", "strings", "errors", "sync", "strconv", "os", "hash/crc32", "hash/maphash"}

// loadFixture typechecks one fixture case (dep packages first, wired
// through a registering importer) and returns the packages in
// dependency order plus the merged want keys.
func loadFixture(t *testing.T, fset *token.FileSet, imp types.Importer, c struct {
	dir, path string
	deps      []fixtureDep
}) ([]*Package, map[string]int) {
	t.Helper()
	si := NewSourceImporter(imp)
	want := map[string]int{}
	var pkgs []*Package
	for _, dep := range c.deps {
		files := parseFixtureDir(t, fset, dep.dir, want)
		pkg, err := CheckParsed(fset, dep.path, files, si)
		if err != nil {
			t.Fatal(err)
		}
		si.Register(pkg.Types)
		pkgs = append(pkgs, pkg)
	}
	files := parseFixtureDir(t, fset, c.dir, want)
	pkg, err := CheckParsed(fset, c.path, files, si)
	if err != nil {
		t.Fatal(err)
	}
	return append(pkgs, pkg), want
}

func TestFixtures(t *testing.T) {
	fset := token.NewFileSet()
	imp, err := StdImporter("../..", fset, fixtureImports...)
	if err != nil {
		t.Fatal(err)
	}
	covered := map[string]bool{}
	for _, c := range fixtureCases {
		t.Run(strings.ReplaceAll(c.dir, "/", "_"), func(t *testing.T) {
			pkgs, want := loadFixture(t, fset, imp, c)
			if len(want) == 0 {
				t.Fatalf("fixture %s has no want comments", c.dir)
			}
			got := map[string]int{}
			for _, d := range Run(pkgs, All()) {
				got[fmt.Sprintf("%d:%s", d.Pos.Line, d.Analyzer)]++
				covered[d.Analyzer] = true
			}
			for k, n := range want {
				if got[k] != n {
					t.Errorf("expected %d diagnostic(s) at %s, got %d", n, k, got[k])
				}
			}
			for k, n := range got {
				if want[k] != n {
					t.Errorf("unexpected diagnostic(s) at %s (%d)", k, n)
				}
			}
		})
	}
	// Every analyzer in the registry must have caught at least one
	// fixture violation (plus the suppression pseudo-analyzer).
	var missing []string
	for _, a := range All() {
		if !covered[a.Name] {
			missing = append(missing, a.Name)
		}
	}
	if !covered["ignore"] {
		missing = append(missing, "ignore")
	}
	sort.Strings(missing)
	if len(missing) > 0 {
		t.Errorf("analyzers with no fixture coverage: %v", missing)
	}
}

// TestStaleIgnores checks both halves of stale-suppression detection:
// a live directive keeps its finding suppressed and is not reported,
// while a directive that suppresses nothing is reported (only) when
// StaleIgnores is on.
func TestStaleIgnores(t *testing.T) {
	fset := token.NewFileSet()
	imp, err := StdImporter("../..", fset, fixtureImports...)
	if err != nil {
		t.Fatal(err)
	}
	files := parseFixtureDir(t, fset, "stale", map[string]int{})
	pkg, err := CheckParsed(fset, "example.test/stale", files, imp)
	if err != nil {
		t.Fatal(err)
	}
	if diags := Run([]*Package{pkg}, All()); len(diags) != 0 {
		t.Errorf("without StaleIgnores: want 0 diagnostics, got %v", diags)
	}
	diags := RunWithOptions([]*Package{pkg}, All(), Options{StaleIgnores: true})
	if len(diags) != 1 {
		t.Fatalf("with StaleIgnores: want exactly 1 diagnostic, got %v", diags)
	}
	d := diags[0]
	if d.Analyzer != "ignore" || !strings.Contains(d.Message, "stale lint:ignore nopanic") {
		t.Errorf("unexpected stale report: %s", d)
	}
}

// TestSelect covers the -enable/-disable resolution: unknown names
// must error instead of silently running nothing.
func TestSelect(t *testing.T) {
	all, err := Select("", "")
	if err != nil || len(all) != len(All()) {
		t.Fatalf("Select(\"\",\"\") = %d analyzers, err %v; want full suite", len(all), err)
	}
	one, err := Select("errcheck", "")
	if err != nil || len(one) != 1 || one[0].Name != "errcheck" {
		t.Fatalf("Select(errcheck) = %v, err %v", one, err)
	}
	most, err := Select("", "nopanic,errcheck")
	if err != nil || len(most) != len(All())-2 {
		t.Fatalf("Select(disable two) = %d analyzers, err %v", len(most), err)
	}
	for _, a := range most {
		if a.Name == "nopanic" || a.Name == "errcheck" {
			t.Errorf("disabled analyzer %s still selected", a.Name)
		}
	}
	if _, err := Select("bogus", ""); err == nil {
		t.Error("Select(enable bogus) did not error")
	}
	if _, err := Select("", "bogus"); err == nil {
		t.Error("Select(disable bogus) did not error")
	}
	if _, err := Select("errcheck,bogus", ""); err == nil {
		t.Error("Select with one bad name in a list did not error")
	}
}

// TestDeterminism requires byte-identical JSON output run-to-run and
// under permuted package order, which the stable sort plus dedupe
// guarantees.
func TestDeterminism(t *testing.T) {
	fset := token.NewFileSet()
	imp, err := StdImporter("../..", fset, fixtureImports...)
	if err != nil {
		t.Fatal(err)
	}
	var c = fixtureCases[7] // the two-package purity fixture
	if c.dir != "purity" {
		t.Fatal("fixture order changed; update the index")
	}
	pkgs, _ := loadFixture(t, fset, imp, c)
	if len(pkgs) != 2 {
		t.Fatalf("want 2 packages, got %d", len(pkgs))
	}
	encode := func(pkgs []*Package) []byte {
		var buf bytes.Buffer
		enc := json.NewEncoder(&buf)
		if err := enc.Encode(RunWithOptions(pkgs, All(), Options{StaleIgnores: true})); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	first := encode(pkgs)
	if len(first) <= len("[]\n") {
		t.Fatal("determinism fixture produced no findings")
	}
	if again := encode(pkgs); !bytes.Equal(first, again) {
		t.Errorf("output differs between identical runs:\n%s\nvs\n%s", first, again)
	}
	reversed := []*Package{pkgs[1], pkgs[0]}
	if perm := encode(reversed); !bytes.Equal(first, perm) {
		t.Errorf("output depends on package order:\n%s\nvs\n%s", first, perm)
	}
}

// TestRepoClean runs the full suite — including the whole-program
// purity, hotpath, and lockheld analyzers and stale-suppression
// detection — over the whole repository. The tree must stay
// lint-clean: new wall-clock reads, global rand draws, exact float
// comparisons, stray panics, dropped errors, compute-plane impurities,
// hot-path allocations, lock-discipline breaches, and dead lint:ignore
// comments show up here (and in CI) immediately.
func TestRepoClean(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and typechecks the whole repository")
	}
	loader := &Loader{Dir: "../..", Tests: true}
	pkgs, err := loader.Load("./...")
	if err != nil {
		t.Fatal(err)
	}
	if diags := RunWithOptions(pkgs, All(), Options{StaleIgnores: true}); len(diags) > 0 {
		for _, d := range diags {
			t.Errorf("%s", d)
		}
	}
}

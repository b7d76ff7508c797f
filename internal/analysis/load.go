package analysis

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

// Package is one loaded, typechecked package ready for analysis.
type Package struct {
	Path  string // import path; external test packages get a "_test" suffix
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
	// Reported packages are the ones whose findings a run reports: those
	// the load patterns match. The others complete the program for the
	// whole-program analyzers.
	Reported bool
	// Nested marks a package of a module nested under the loaded one.
	// Its files, tests included, count as callers of the loaded module.
	Nested bool
}

// Loader resolves package patterns through the go command and
// typechecks with go/types the whole module they belong to, plus every
// module nested under its root, from source. Packages outside those
// modules (the standard library) are imported from compiler export
// data (`go list -export`): no network, no third-party tooling. So one
// package is analyzed in the same program as `./...`, and the patterns
// only choose which packages' findings are reported.
type Loader struct {
	// Dir is the directory go list runs in (the module root, usually).
	Dir string
	// Tests includes the loaded module's _test.go files: in-package
	// test files are checked together with the package, external ones
	// as a separate package. A nested module's tests are always loaded.
	Tests bool
}

// listedPkg is the subset of `go list -json` output the loader needs.
type listedPkg struct {
	ImportPath string
	Dir        string
	Export     string
	Module     *struct {
		Main bool
		Dir  string
	}
	GoFiles      []string
	CgoFiles     []string
	Imports      []string
	TestGoFiles  []string
	XTestGoFiles []string
	TestImports  []string
	Error        *struct{ Err string }
}

// goList runs `go list -e -json` with args in dir and decodes the
// stream. A package go list could not load is an error.
func goList(dir string, args ...string) ([]*listedPkg, error) {
	args = append([]string{"list", "-e",
		"-json=ImportPath,Dir,Export,Module,GoFiles,CgoFiles,Imports,TestGoFiles,XTestGoFiles,TestImports,Error"},
		args...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("analysis: go %s: %v\n%s", strings.Join(args, " "), err, stderr.String())
	}
	var pkgs []*listedPkg
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		p := new(listedPkg)
		if err := dec.Decode(p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("analysis: decoding go list output: %v", err)
		}
		if p.Error != nil {
			return nil, fmt.Errorf("analysis: %s: %s", p.ImportPath, p.Error.Err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

// exportIndex maps import paths to compiler export data files and
// already source-checked packages.
type exportIndex struct {
	files  map[string]string
	source map[string]*types.Package
}

// Lookup implements the importer.Lookup contract.
func (x *exportIndex) Lookup(path string) (io.ReadCloser, error) {
	f, ok := x.files[path]
	if !ok {
		return nil, fmt.Errorf("analysis: no export data for %q", path)
	}
	return os.Open(f)
}

// srcImporter prefers in-memory source-checked packages and falls back
// to export data. Mixing the two for one package would give its types
// two identities, so every package of a loaded module is checked from
// source before anything imports it.
type srcImporter struct {
	idx *exportIndex
	gc  types.Importer
}

func (si srcImporter) Import(path string) (*types.Package, error) {
	if p, ok := si.idx.source[path]; ok {
		return p, nil
	}
	return si.gc.Import(path)
}

// Load typechecks the module around Dir and the modules nested under
// its root, and returns their packages with Reported set on those the
// patterns (default "./...") match.
func (l *Loader) Load(patterns ...string) ([]*Package, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	matched, err := goList(l.Dir, append([]string{"-find"}, patterns...)...)
	if err != nil {
		return nil, err
	}
	report := map[string]bool{}
	for _, p := range matched {
		report[p.ImportPath] = true
	}

	fset := token.NewFileSet()
	idx := &exportIndex{files: map[string]string{}, source: map[string]*types.Package{}}
	imp := srcImporter{idx: idx, gc: importer.ForCompiler(fset, "gc", idx.Lookup)}
	own, err := listModule(l.Dir, idx)
	if err != nil {
		return nil, err
	}
	out, err := checkModule(fset, imp, own, l.Tests)
	if err != nil {
		return nil, err
	}
	for _, pkg := range out {
		pkg.Reported = report[strings.TrimSuffix(pkg.Path, "_test")]
	}
	if len(own) == 0 {
		return out, nil
	}
	nested, err := nestedModules(own[0].Module.Dir)
	if err != nil {
		return nil, err
	}
	for _, dir := range nested {
		own, err := listModule(dir, idx)
		if err != nil {
			return nil, err
		}
		pkgs, err := checkModule(fset, imp, own, true)
		if err != nil {
			return nil, err
		}
		for _, pkg := range pkgs {
			pkg.Reported, pkg.Nested = false, true
		}
		out = append(out, pkgs...)
	}
	return out, nil
}

// listModule lists the module around dir with everything its packages
// and their tests import, records the export data of what lies outside
// it, and returns the module's own packages in dependency order.
func listModule(dir string, idx *exportIndex) ([]*listedPkg, error) {
	listed, err := goList(dir, "-export", "-deps", "all")
	if err != nil {
		return nil, err
	}
	var own []*listedPkg
	for _, p := range listed {
		if p.Module != nil && p.Module.Main {
			own = append(own, p)
		} else if p.Export != "" && idx.files[p.ImportPath] == "" {
			idx.files[p.ImportPath] = p.Export
		}
	}
	return own, nil
}

// nestedModules returns the directories under root that hold a go.mod
// of their own, skipping testdata and the directories the go command
// ignores (names starting with "." or "_").
func nestedModules(root string) ([]string, error) {
	var dirs []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() || path == root {
			return err
		}
		if name := d.Name(); name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
			return filepath.SkipDir
		}
		if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
			dirs = append(dirs, path)
		}
		return nil
	})
	return dirs, err
}

// checkModule typechecks one module's packages from source: each one,
// with its in-package test files when tests is set, after every package
// of the module it imports; then the external test packages, which may
// import any package of the module.
func checkModule(fset *token.FileSet, imp srcImporter, pkgs []*listedPkg, tests bool) ([]*Package, error) {
	var out []*Package
	for _, p := range checkOrder(pkgs, tests) {
		if len(p.CgoFiles) > 0 {
			return nil, fmt.Errorf("analysis: %s uses cgo, which the loader does not support", p.ImportPath)
		}
		names := p.GoFiles
		if tests {
			names = append(names[:len(names):len(names)], p.TestGoFiles...)
		}
		pkg, err := checkFiles(fset, p.ImportPath, p.Dir, names, imp)
		if err != nil {
			return nil, err
		}
		if pkg != nil {
			imp.idx.source[p.ImportPath] = pkg.Types
			out = append(out, pkg)
		}
	}
	if tests {
		for _, p := range pkgs {
			xpkg, err := checkFiles(fset, p.ImportPath+"_test", p.Dir, p.XTestGoFiles, imp)
			if err != nil {
				return nil, err
			}
			if xpkg != nil {
				out = append(out, xpkg)
			}
		}
	}
	return out, nil
}

// checkOrder returns pkgs with each one after every package of pkgs it
// imports. go list -deps orders packages by their non-test imports only;
// with tests, a package is checked together with its in-package test
// files, so their imports count too. That graph is acyclic: the go
// command rejects an in-package test whose imports lead back to its
// package. Among unrelated packages the given order stands.
func checkOrder(pkgs []*listedPkg, tests bool) []*listedPkg {
	byPath := make(map[string]*listedPkg, len(pkgs))
	for _, p := range pkgs {
		byPath[p.ImportPath] = p
	}
	out := make([]*listedPkg, 0, len(pkgs))
	placed := make(map[string]bool, len(pkgs))
	var place func(p *listedPkg)
	place = func(p *listedPkg) {
		if placed[p.ImportPath] {
			return
		}
		placed[p.ImportPath] = true
		imports := p.Imports
		if tests {
			imports = append(imports[:len(imports):len(imports)], p.TestImports...)
		}
		for _, imp := range imports {
			if q := byPath[imp]; q != nil {
				place(q)
			}
		}
		out = append(out, p)
	}
	for _, p := range pkgs {
		place(p)
	}
	return out
}

// checkFiles parses the named files from dir and typechecks them as
// one package.
func checkFiles(fset *token.FileSet, path, dir string, names []string, imp types.Importer) (*Package, error) {
	if len(names) == 0 {
		return nil, nil
	}
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("analysis: %v", err)
		}
		files = append(files, f)
	}
	return CheckParsed(fset, path, files, imp)
}

// CheckParsed typechecks already-parsed files as one package; it is
// the entry point fixture tests use to pose as arbitrary import paths.
func CheckParsed(fset *token.FileSet, path string, files []*ast.File, imp types.Importer) (*Package, error) {
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	conf := types.Config{Importer: imp}
	tpkg, err := conf.Check(path, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("analysis: typechecking %s: %v", path, err)
	}
	return &Package{Path: path, Fset: fset, Files: files, Types: tpkg, Info: info, Reported: true}, nil
}

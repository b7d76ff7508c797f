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
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
)

// Package is one loaded, typechecked package ready for analysis.
type Package struct {
	Path  string // import path; external test packages get a "_test" suffix
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// Loader resolves package patterns through the go command and
// typechecks their sources with go/types. Dependencies are imported
// from compiler export data (`go list -export`), so only the target
// packages themselves are parsed — no network, no third-party tooling.
type Loader struct {
	// Dir is the directory go list runs in (the module root, usually).
	Dir string
	// Tests includes _test.go files: in-package test files are checked
	// together with the package, external ones as a separate package.
	Tests bool
}

// listedPkg is the subset of `go list -json` output the loader needs.
type listedPkg struct {
	ImportPath   string
	Name         string
	Dir          string
	Export       string
	Standard     bool
	DepOnly      bool
	GoFiles      []string
	CgoFiles     []string
	Imports      []string
	TestGoFiles  []string
	XTestGoFiles []string
	TestImports  []string
	XTestImports []string
	Error        *struct{ Err string }
}

// goList runs `go list -e -export -deps -json` on the patterns and
// decodes the stream.
func goList(dir string, extraArgs []string, patterns ...string) ([]*listedPkg, error) {
	args := append([]string{"list", "-e", "-export",
		"-json=ImportPath,Name,Dir,Export,Standard,DepOnly,GoFiles,CgoFiles,Imports,TestGoFiles,XTestGoFiles,TestImports,XTestImports,Error"},
		extraArgs...)
	args = append(args, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("analysis: go list %s: %v\n%s", strings.Join(patterns, " "), err, stderr.String())
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

// srcImporter prefers in-memory source-checked packages (needed so
// external test packages see identifiers declared in in-package test
// files) and falls back to export data.
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

// Load lists, parses and typechecks the packages matching patterns
// (default "./...").
func (l *Loader) Load(patterns ...string) ([]*Package, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	listed, err := goList(l.Dir, []string{"-deps"}, patterns...)
	if err != nil {
		return nil, err
	}
	idx := &exportIndex{files: map[string]string{}, source: map[string]*types.Package{}}
	var targets []*listedPkg
	var missing []string
	seen := map[string]*listedPkg{}
	for _, p := range listed {
		if p.Error != nil {
			return nil, fmt.Errorf("analysis: %s: %s", p.ImportPath, p.Error.Err)
		}
		if p.Export != "" {
			idx.files[p.ImportPath] = p.Export
		}
		seen[p.ImportPath] = p
		if !p.DepOnly && !p.Standard {
			targets = append(targets, p)
		}
	}
	// Test-only imports are not part of the -deps closure; resolve
	// their export data in one extra go list call.
	if l.Tests {
		need := map[string]bool{}
		for _, p := range targets {
			for _, imp := range append(append([]string{}, p.TestImports...), p.XTestImports...) {
				if imp != "C" && seen[imp] == nil && !need[imp] {
					need[imp] = true
					missing = append(missing, imp)
				}
			}
		}
		if len(missing) > 0 {
			extra, err := goList(l.Dir, []string{"-deps"}, missing...)
			if err != nil {
				return nil, err
			}
			for _, p := range extra {
				if p.Export != "" {
					idx.files[p.ImportPath] = p.Export
				}
				if seen[p.ImportPath] == nil {
					seen[p.ImportPath] = p
				}
			}
		}
	}

	fset := token.NewFileSet()
	imp := srcImporter{idx: idx, gc: importer.ForCompiler(fset, "gc", idx.Lookup)}
	var out []*Package
	// Pass 1: the targets themselves, each after every package it imports
	// (checkOrder), so imports between targets resolve to source-checked
	// packages rather than export data (mixing the two gives the same
	// type two identities). Bridges are checked from source too, without
	// their tests, and are not reported.
	isTarget := make(map[string]bool, len(targets))
	for _, p := range targets {
		isTarget[p.ImportPath] = true
	}
	for _, p := range checkOrder(append(targets, bridges(seen, isTarget)...), isTarget, l.Tests) {
		if len(p.CgoFiles) > 0 {
			return nil, fmt.Errorf("analysis: %s uses cgo, which the loader does not support", p.ImportPath)
		}
		names := append([]string{}, p.GoFiles...)
		if l.Tests && isTarget[p.ImportPath] {
			names = append(names, p.TestGoFiles...)
		}
		pkg, err := checkFiles(fset, p.ImportPath, p.Dir, names, imp)
		if err != nil {
			return nil, err
		}
		if pkg != nil {
			idx.source[p.ImportPath] = pkg.Types
			if isTarget[p.ImportPath] {
				out = append(out, pkg)
			}
		}
	}
	// Pass 2: external test packages, after every target is source-
	// checked. An external test may import sibling targets beyond the
	// package under test (a stream test driving the apps catalog);
	// checking it inside pass 1 would resolve later siblings from
	// export data and collide with their source-checked identities.
	if l.Tests {
		for _, p := range targets {
			if len(p.XTestGoFiles) == 0 {
				continue
			}
			xpkg, err := checkFiles(fset, p.ImportPath+"_test", p.Dir, p.XTestGoFiles, imp)
			if err != nil {
				return nil, err
			}
			out = append(out, xpkg)
		}
	}
	return out, nil
}

// bridges returns the listed packages that are not targets but import a
// target, directly or through other packages. Read from export data, such
// a package would bring its own copy of the target's types: an external
// test of internal/stream that imports internal/apps, which imports
// internal/stream, would see two stream.Window types.
func bridges(listed map[string]*listedPkg, isTarget map[string]bool) []*listedPkg {
	reaches := map[string]bool{}
	var reach func(path string) bool
	reach = func(path string) bool {
		if r, ok := reaches[path]; ok {
			return r
		}
		reaches[path] = isTarget[path]
		if p := listed[path]; p != nil && !p.Standard {
			for _, imp := range p.Imports {
				if reach(imp) {
					reaches[path] = true
					break
				}
			}
		}
		return reaches[path]
	}
	var out []*listedPkg
	for path, p := range listed {
		if !isTarget[path] && reach(path) {
			out = append(out, p)
		}
	}
	slices.SortFunc(out, func(a, b *listedPkg) int { return strings.Compare(a.ImportPath, b.ImportPath) })
	return out
}

// checkOrder returns pkgs with each one after every package of pkgs it
// imports. go list -deps orders targets by their non-test imports only;
// with tests, a target is checked together with its in-package test
// files, so their imports count too. That graph is acyclic: the go
// command rejects an in-package test whose imports lead back to its
// package. Among unrelated packages the given order stands.
func checkOrder(pkgs []*listedPkg, isTarget map[string]bool, tests bool) []*listedPkg {
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
		if tests && isTarget[p.ImportPath] {
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
	return &Package{Path: path, Fset: fset, Files: files, Types: tpkg, Info: info}, nil
}

// SourceImporter resolves registered source-checked packages first and
// falls back to a base importer. Multi-package fixture tests use it so
// a fixture package can import a sibling fixture package that was
// typechecked in memory.
type SourceImporter struct {
	Base types.Importer
	pkgs map[string]*types.Package
}

// NewSourceImporter wraps base.
func NewSourceImporter(base types.Importer) *SourceImporter {
	return &SourceImporter{Base: base, pkgs: map[string]*types.Package{}}
}

// Register makes pkg resolvable by its import path.
func (s *SourceImporter) Register(pkg *types.Package) { s.pkgs[pkg.Path()] = pkg }

// Import implements types.Importer.
func (s *SourceImporter) Import(path string) (*types.Package, error) {
	if p, ok := s.pkgs[path]; ok {
		return p, nil
	}
	return s.Base.Import(path)
}

// StdImporter builds an importer that resolves the given import paths
// (plus their dependencies) from compiler export data. Fixture tests
// use it to typecheck standalone files.
func StdImporter(dir string, fset *token.FileSet, paths ...string) (types.Importer, error) {
	idx := &exportIndex{files: map[string]string{}, source: map[string]*types.Package{}}
	if len(paths) > 0 {
		listed, err := goList(dir, []string{"-deps"}, paths...)
		if err != nil {
			return nil, err
		}
		for _, p := range listed {
			if p.Export != "" {
				idx.files[p.ImportPath] = p.Export
			}
		}
	}
	return srcImporter{idx: idx, gc: importer.ForCompiler(fset, "gc", idx.Lookup)}, nil
}

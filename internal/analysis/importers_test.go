package analysis

import (
	"go/importer"
	"go/token"
	"go/types"
)

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
		listed, err := goList(dir, append([]string{"-export", "-deps"}, paths...)...)
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

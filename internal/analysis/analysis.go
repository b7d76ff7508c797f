// Package analysis is a stdlib-only static-analysis engine with
// repo-specific analyzers that mechanically enforce the invariants the
// paper's statistics depend on — above all simulator determinism. The
// multi-stage sampling confidence intervals and GEV tail bounds this
// repository reproduces are only meaningful if the simulated schedule
// and sample draws are a pure function of the configured seed; wall
// clocks and the global math/rand source silently break that, so the
// analyzers here forbid them (plus a few classic correctness traps:
// exact float comparison, stray panics, discarded errors, and functions
// under internal/ that nothing but tests calls).
//
// The engine loads packages through the go command (`go list -export`)
// and typechecks with go/types, so analyzers see fully resolved types
// without any dependency outside the standard library. One load rule
// holds: every run typechecks the whole module from source, plus each
// module nested under its root (found by its own go.mod outside
// testdata), and the package patterns only choose which packages'
// findings are reported; a nested module's never are. The deadcode
// analyzer's roots are the program's non-test files and every file of a
// nested module; it keeps a method whose name and signature match a
// method of any package-level interface the program declares or
// imports, and a method of a type the root package exports or aliases.
// Findings can be suppressed with
//
//	//lint:ignore <analyzer>[,<analyzer>...] reason
//
// placed on the offending line or the line directly above it; the
// reason is mandatory. `all` suppresses every analyzer.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer is one named check. Per-package analyzers set Run;
// whole-program analyzers (which need the cross-package call graph)
// set RunProgram. Exactly one of the two must be non-nil.
type Analyzer struct {
	// Name is the identifier used on the command line and in
	// lint:ignore directives.
	Name string
	// Doc is a one-paragraph description shown by `approxlint -list`.
	Doc string
	// Run inspects one package and reports findings through the pass.
	Run func(p *Pass)
	// RunProgram inspects the whole loaded program at once.
	RunProgram func(p *ProgramPass)
}

// Diagnostic is one finding.
type Diagnostic struct {
	Analyzer string         `json:"analyzer"`
	Pos      token.Position `json:"pos"`
	Message  string         `json:"message"`
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: [%s] %s", d.Pos, d.Analyzer, d.Message)
}

// Pass carries one typechecked package to one analyzer.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Path     string // package import path ("_test" suffix for external test packages)
	Pkg      *types.Package
	Info     *types.Info
	// Facts is the shared whole-program layer (declarations, directive
	// marks, call graph) built once per run.
	Facts *Facts

	diags *[]Diagnostic
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...interface{}) {
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// InTestFile reports whether pos lies in a _test.go file.
func (p *Pass) InTestFile(pos token.Pos) bool {
	return strings.HasSuffix(p.Fset.Position(pos).Filename, "_test.go")
}

// ProgramPass carries the whole loaded program to one whole-program
// analyzer.
type ProgramPass struct {
	Analyzer *Analyzer
	Facts    *Facts

	fset  *token.FileSet
	diags *[]Diagnostic
}

// Reportf records a finding at pos.
func (p *ProgramPass) Reportf(pos token.Pos, format string, args ...interface{}) {
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// InTestFile reports whether pos lies in a _test.go file.
func (p *ProgramPass) InTestFile(pos token.Pos) bool {
	return strings.HasSuffix(p.fset.Position(pos).Filename, "_test.go")
}

// ErrorType is the universe error interface type, for analyzers that
// look for discarded errors.
var ErrorType = types.Universe.Lookup("error").Type()

// Options tunes one engine run.
type Options struct {
	// StaleIgnores additionally reports (under the pseudo-analyzer
	// "ignore") every well-formed lint:ignore directive that suppressed
	// nothing. Only meaningful when the full analyzer suite runs: with
	// a subset enabled, directives for the disabled analyzers would be
	// falsely stale.
	StaleIgnores bool
}

// RunWithOptions builds the whole-program facts layer once, applies
// every analyzer (per-package Run passes and whole-program RunProgram
// passes), filters findings through lint:ignore directives, and
// returns the surviving diagnostics deduplicated and sorted in stable
// file:line:column:analyzer order, so output is byte-identical from
// run to run regardless of package order. Malformed directives are
// reported under the pseudo-analyzer "ignore".
func RunWithOptions(pkgs []*Package, analyzers []*Analyzer, opts Options) []Diagnostic {
	facts := NewFacts(pkgs)

	// All packages from one Loader share a FileSet. Only reported
	// packages are analyzed one by one and have their directives
	// indexed; a program-level finding elsewhere is dropped.
	var all, raw []Diagnostic
	idx := newDirectives()
	var fset *token.FileSet
	reported := map[string]bool{}
	for _, pkg := range pkgs {
		fset = pkg.Fset
		if !pkg.Reported {
			continue
		}
		for _, f := range pkg.Files {
			reported[pkg.Fset.Position(f.Pos()).Filename] = true
		}
		all = append(all, idx.scan(pkg.Fset, pkg.Files)...)
		for _, a := range analyzers {
			if a.Run == nil {
				continue
			}
			a.Run(&Pass{
				Analyzer: a,
				Fset:     pkg.Fset,
				Files:    pkg.Files,
				Path:     pkg.Path,
				Pkg:      pkg.Types,
				Info:     pkg.Info,
				Facts:    facts,
				diags:    &raw,
			})
		}
	}
	if fset != nil {
		for _, a := range analyzers {
			if a.RunProgram == nil {
				continue
			}
			a.RunProgram(&ProgramPass{Analyzer: a, Facts: facts, fset: fset, diags: &raw})
		}
	}

	for _, d := range raw {
		if reported[d.Pos.Filename] && !idx.suppresses(d) {
			all = append(all, d)
		}
	}
	if opts.StaleIgnores {
		all = append(all, idx.stale()...)
	}

	sort.Slice(all, func(i, j int) bool {
		a, b := all[i].Pos, all[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		if all[i].Analyzer != all[j].Analyzer {
			return all[i].Analyzer < all[j].Analyzer
		}
		return all[i].Message < all[j].Message
	})
	out := all[:0]
	for i, d := range all {
		if i > 0 && d == all[i-1] {
			continue // identical finding reported twice (e.g. by two passes)
		}
		out = append(out, d)
	}
	return out
}

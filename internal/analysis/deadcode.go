package analysis

import (
	"go/types"
	"strings"
)

// Deadcode reports every function and method declared in a non-test
// file under internal/ that nothing but tests reaches. The roots are
// the loaded program's non-test files plus every file, tests included,
// of a nested module (the layered benchmark drives internal packages
// that nothing else calls). A method is also kept when an interface
// could call it: its name and signature match a method of an interface
// type the program declares or imports, or its type is one the root
// package (the one whose internal/ tree holds it) exports or aliases.
var Deadcode = &Analyzer{
	Name: "deadcode",
	Doc: "report funcs and methods in non-test files under internal/ that no non-test " +
		"file of the program references (a nested module's tests count); methods that " +
		"match an interface method by name and signature, methods of types the root " +
		"package exports or aliases, main and init are kept",
	RunProgram: runDeadcode,
}

func runDeadcode(p *ProgramPass) {
	f := p.Facts
	used := map[*types.Func]bool{}
	for _, pkg := range f.Pkgs {
		for id, obj := range pkg.Info.Uses {
			fn, ok := obj.(*types.Func)
			if !ok || !pkg.Nested && p.InTestFile(id.Pos()) {
				continue
			}
			fn = fn.Origin()
			if d := f.Funcs[fn]; d != nil && id.Pos() >= d.Decl.Pos() && id.Pos() < d.Decl.End() {
				continue // recursion is no caller
			}
			used[fn] = true
		}
	}
	ifaces := interfaceMethods(f.Pkgs)
	facade := facadeTypes(f.Pkgs)
	for fn, d := range f.Funcs {
		recv := recvNamed(fn)
		switch {
		case used[fn] || internalAt(d.Pkg.Path) < 0 || p.InTestFile(d.Decl.Pos()):
			continue
		case recv == nil && (fn.Name() == "main" || fn.Name() == "init"):
			continue
		case recv != nil && (facade[recv.Obj()] || implementsSome(fn, ifaces)):
			continue
		}
		name := fn.Name()
		if recv != nil {
			name = recv.Obj().Name() + "." + name
		}
		p.Reportf(d.Decl.Name.Pos(), "%s has no caller outside tests: delete it, or move it into a _test.go file", name)
	}
}

// internalAt returns the index in path of the first internal element's
// slash, or -1 when path is not under an internal/ tree.
func internalAt(path string) int { return strings.Index(path+"/", "/internal/") }

// interfaceMethods indexes by name the signatures of every method of
// every package-level interface type the loaded packages declare or
// import (transitively), the universe's error included.
func interfaceMethods(pkgs []*Package) map[string][]*types.Signature {
	out := map[string][]*types.Signature{}
	add := func(t types.Type) {
		it, ok := t.Underlying().(*types.Interface)
		if !ok {
			return
		}
		for i := 0; i < it.NumMethods(); i++ {
			m := it.Method(i)
			out[m.Name()] = append(out[m.Name()], m.Type().(*types.Signature))
		}
	}
	add(ErrorType)
	seen := map[*types.Package]bool{}
	var walk func(tp *types.Package)
	walk = func(tp *types.Package) {
		if seen[tp] {
			return
		}
		seen[tp] = true
		for _, name := range tp.Scope().Names() {
			if tn, ok := tp.Scope().Lookup(name).(*types.TypeName); ok {
				add(tn.Type())
			}
		}
		for _, imp := range tp.Imports() {
			walk(imp)
		}
	}
	for _, pkg := range pkgs {
		walk(pkg.Types)
	}
	return out
}

// implementsSome reports whether method fn matches, by name and
// signature, a method of one of the indexed interfaces.
func implementsSome(fn *types.Func, ifaces map[string][]*types.Signature) bool {
	for _, sig := range ifaces[fn.Name()] {
		if types.Identical(fn.Type(), sig) {
			return true
		}
	}
	return false
}

// facadeTypes returns the named types that a root package, one whose
// path holds an internal/ tree of loaded packages, exports or aliases:
// their methods are that package's API.
func facadeTypes(pkgs []*Package) map[*types.TypeName]bool {
	roots := map[string]bool{}
	for _, pkg := range pkgs {
		if i := internalAt(pkg.Path); i >= 0 {
			roots[pkg.Path[:i]] = true
		}
	}
	out := map[*types.TypeName]bool{}
	for _, pkg := range pkgs {
		if !roots[pkg.Path] {
			continue
		}
		for _, name := range pkg.Types.Scope().Names() {
			tn, ok := pkg.Types.Scope().Lookup(name).(*types.TypeName)
			if !ok || !tn.Exported() {
				continue
			}
			if named := derefNamed(types.Unalias(tn.Type())); named != nil {
				out[named.Origin().Obj()] = true
			}
		}
	}
	return out
}

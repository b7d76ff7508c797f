package analysis

import (
	"go/ast"
	"go/types"
	"sort"
	"strings"
)

// Source directives recognized by the whole-program analyzers. Each
// must appear alone on a comment line in the doc comment of the
// declaration it marks.
const (
	// computeDirective marks a function as a compute-plane root: it may
	// run on a worker-pool goroutine concurrently with the virtual-time
	// scheduler, so everything reachable from it must be a pure function
	// of its arguments (purity).
	computeDirective = "//approx:compute"
	// hotpathDirective marks a function as per-record hot: the hotpath
	// analyzer forbids allocation-causing constructs inside it.
	hotpathDirective = "//approx:hotpath"
	// pureDirective, on an interface type or a func-valued field/var,
	// asserts that every implementation (or stored value) honors the
	// compute-plane purity contract. The purity analyzer trusts the
	// assertion instead of reporting calls through it as an
	// un-analyzable frontier.
	pureDirective = "//approx:pure"
)

// FuncInfo is one function or method declaration in the loaded
// program, paired with the package that declares it.
type FuncInfo struct {
	Obj  *types.Func
	Decl *ast.FuncDecl
	Pkg  *Package
}

// Facts is the shared whole-program layer: every loaded package,
// every function declaration with source, the directive marks, and the
// cross-package call graph. It is built once per RunWithOptions call
// and handed to every analyzer (program-level analyzers receive it on
// the ProgramPass; per-package analyzers reach it through Pass.Facts).
type Facts struct {
	Pkgs  []*Package
	Funcs map[*types.Func]*FuncInfo

	// ComputeRoots and HotpathFuncs hold the marked functions in
	// deterministic (source position) order.
	ComputeRoots []*types.Func
	HotpathFuncs []*types.Func

	pureIfaces map[*types.TypeName]bool // interfaces marked //approx:pure
	pureVars   map[*types.Var]bool      // func-valued fields/vars marked //approx:pure

	graph *CallGraph
}

// NewFacts indexes the loaded packages: declarations, directives, and
// (lazily) the call graph.
func NewFacts(pkgs []*Package) *Facts {
	f := &Facts{
		Pkgs:       pkgs,
		Funcs:      map[*types.Func]*FuncInfo{},
		pureIfaces: map[*types.TypeName]bool{},
		pureVars:   map[*types.Var]bool{},
	}
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					obj, ok := pkg.Info.Defs[d.Name].(*types.Func)
					if !ok {
						continue
					}
					f.Funcs[obj] = &FuncInfo{Obj: obj, Decl: d, Pkg: pkg}
					if hasDirective(d.Doc, computeDirective) {
						f.ComputeRoots = append(f.ComputeRoots, obj)
					}
					if hasDirective(d.Doc, hotpathDirective) {
						f.HotpathFuncs = append(f.HotpathFuncs, obj)
					}
				case *ast.GenDecl:
					f.scanGenDecl(pkg, d)
				}
			}
		}
	}
	sortFuncs := func(fns []*types.Func) {
		sort.Slice(fns, func(i, j int) bool { return fns[i].Pos() < fns[j].Pos() })
	}
	sortFuncs(f.ComputeRoots)
	sortFuncs(f.HotpathFuncs)
	return f
}

// scanGenDecl collects //approx:pure marks from type and var
// declarations: interface types, func-valued struct fields, and
// func-valued package variables.
func (f *Facts) scanGenDecl(pkg *Package, d *ast.GenDecl) {
	for _, spec := range d.Specs {
		switch s := spec.(type) {
		case *ast.TypeSpec:
			doc := s.Doc
			if doc == nil && len(d.Specs) == 1 {
				doc = d.Doc
			}
			if hasDirective(doc, pureDirective) {
				if tn, ok := pkg.Info.Defs[s.Name].(*types.TypeName); ok {
					f.pureIfaces[tn] = true
				}
			}
			if st, ok := s.Type.(*ast.StructType); ok {
				f.scanStructFields(pkg, st)
			}
		case *ast.ValueSpec:
			doc := s.Doc
			if doc == nil && len(d.Specs) == 1 {
				doc = d.Doc
			}
			if !hasDirective(doc, pureDirective) && !hasDirective(s.Comment, pureDirective) {
				continue
			}
			for _, name := range s.Names {
				if v, ok := pkg.Info.Defs[name].(*types.Var); ok {
					f.pureVars[v] = true
				}
			}
		}
	}
}

// scanStructFields collects //approx:pure marks on struct fields (the
// directive sits in the field's doc comment or line comment).
func (f *Facts) scanStructFields(pkg *Package, st *ast.StructType) {
	for _, field := range st.Fields.List {
		if !hasDirective(field.Doc, pureDirective) && !hasDirective(field.Comment, pureDirective) {
			continue
		}
		for _, name := range field.Names {
			if v, ok := pkg.Info.Defs[name].(*types.Var); ok {
				f.pureVars[v] = true
			}
		}
	}
}

// hasDirective reports whether the comment group contains the
// directive alone on one line.
func hasDirective(doc *ast.CommentGroup, directive string) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		if strings.TrimSpace(c.Text) == directive {
			return true
		}
	}
	return false
}

// PureInterface reports whether the named interface carries an
// //approx:pure mark.
func (f *Facts) PureInterface(tn *types.TypeName) bool { return f.pureIfaces[tn] }

// PureVar reports whether the func-valued field or variable carries an
// //approx:pure mark.
func (f *Facts) PureVar(v *types.Var) bool { return f.pureVars[v] }

// Graph returns the cross-package static call graph, building it on
// first use.
func (f *Facts) Graph() *CallGraph {
	if f.graph == nil {
		f.graph = buildCallGraph(f)
	}
	return f.graph
}

// DeclOf returns the declaration info for fn, or nil when fn has no
// source in the loaded program (an external function).
func (f *Facts) DeclOf(fn *types.Func) *FuncInfo { return f.Funcs[fn] }

// calleeStatic resolves a call expression to the *types.Func it
// statically invokes: a plain function, a qualified pkg.Func, or a
// method (devirtualized when the receiver is concrete). It returns nil
// for calls through function values, builtins, and conversions.
// Shared by errcheck, the call-graph builder, and lockheld.
func calleeStatic(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := info.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			if sel.Kind() == types.MethodVal || sel.Kind() == types.MethodExpr {
				fn, _ := sel.Obj().(*types.Func)
				return fn
			}
			return nil // field access: function value, not a static callee
		}
		fn, _ := info.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}

// derefNamed unwraps one pointer level and returns the named type, if
// any.
func derefNamed(t types.Type) *types.Named {
	if t == nil {
		return nil
	}
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}

// recvNamed returns the named type of fn's receiver (nil for plain
// functions and interface methods on unnamed interfaces).
func recvNamed(fn *types.Func) *types.Named {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil
	}
	return derefNamed(sig.Recv().Type())
}

// isInterfaceMethod reports whether fn is declared on an interface
// (so a call to it can never be resolved statically).
func isInterfaceMethod(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	return types.IsInterface(sig.Recv().Type())
}

// pkgPathOf returns the import path of the package declaring obj, or
// "" for universe-scope objects.
func pkgPathOf(obj types.Object) string {
	if obj == nil || obj.Pkg() == nil {
		return ""
	}
	return obj.Pkg().Path()
}

package analysis

import (
	"go/ast"
	"go/types"
)

// CallKind classifies one call site in the call graph.
type CallKind int

const (
	// CallStatic is a resolved call to a function whose declaration is
	// in the loaded program: a direct function call, a qualified
	// pkg.Func call, or a method call devirtualized by its concrete
	// receiver type.
	CallStatic CallKind = iota
	// CallExternal is a resolved call to a function with no source in
	// the loaded program (stdlib or export-data-only dependency).
	CallExternal
	// CallInterface is a method call through an interface-typed
	// receiver: the concrete callee is unknown, so the edge is part of
	// the graph frontier.
	CallInterface
	// CallFuncValue is a call through a function value (a variable,
	// field, parameter, or expression): also frontier.
	CallFuncValue
)

func (k CallKind) String() string {
	switch k {
	case CallStatic:
		return "static"
	case CallExternal:
		return "external"
	case CallInterface:
		return "interface"
	default:
		return "func-value"
	}
}

// Call is one call site attributed to the innermost enclosing function
// declaration (calls inside function literals belong to the function
// whose body created the literal — the literal's body is analyzed
// inline).
type Call struct {
	Caller *types.Func
	Site   *ast.CallExpr
	Kind   CallKind
	// Callee is the resolved target for CallStatic and CallExternal,
	// and the interface method for CallInterface. It is nil for
	// CallFuncValue.
	Callee *types.Func
	// Target is the variable or field holding the function value, when
	// one is identifiable (CallFuncValue only).
	Target *types.Var
}

// CallGraph is the whole-program static call graph: every call site in
// every loaded function, keyed by caller. Unresolvable calls stay in
// the graph as frontier edges (CallInterface, CallFuncValue) so
// analyzers can reason about what escapes the analysis.
type CallGraph struct {
	calls map[*types.Func][]Call
}

// CallsFrom returns every call site inside fn's declaration, in source
// order.
func (g *CallGraph) CallsFrom(fn *types.Func) []Call { return g.calls[fn] }

// buildCallGraph walks every declared function body and classifies its
// call sites.
func buildCallGraph(f *Facts) *CallGraph {
	g := &CallGraph{calls: map[*types.Func][]Call{}}
	for _, pkg := range f.Pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				obj, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				ast.Inspect(fd.Body, func(n ast.Node) bool {
					call, ok := n.(*ast.CallExpr)
					if !ok {
						return true
					}
					if c, ok := classifyCall(f, pkg.Info, obj, call); ok {
						g.calls[obj] = append(g.calls[obj], c)
					}
					return true
				})
			}
		}
	}
	return g
}

// classifyCall resolves one call expression. It returns ok=false for
// non-calls that parse as CallExpr (type conversions, builtins) and
// for immediately-invoked function literals, whose bodies are already
// analyzed inline as part of the enclosing function.
func classifyCall(f *Facts, info *types.Info, caller *types.Func, call *ast.CallExpr) (Call, bool) {
	c := Call{Caller: caller, Site: call}
	fun := ast.Unparen(call.Fun)

	// Conversions look like calls; skip them.
	if tv, ok := info.Types[fun]; ok && tv.IsType() {
		return c, false
	}

	switch e := fun.(type) {
	case *ast.Ident:
		switch obj := info.Uses[e].(type) {
		case *types.Func:
			return resolvedCall(f, c, obj), true
		case *types.Builtin, *types.TypeName, nil:
			return c, false
		case *types.Var:
			c.Kind, c.Target = CallFuncValue, obj
			return c, true
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[e]; ok {
			switch sel.Kind() {
			case types.MethodVal, types.MethodExpr:
				fn := sel.Obj().(*types.Func)
				// A method whose own receiver is an interface stays
				// unresolved even when selected from a concrete value
				// (promotion through an embedded interface).
				if isInterfaceMethod(fn) {
					c.Kind, c.Callee = CallInterface, fn
					return c, true
				}
				return resolvedCall(f, c, fn), true
			case types.FieldVal:
				c.Kind = CallFuncValue
				c.Target, _ = sel.Obj().(*types.Var)
				return c, true
			}
			return c, false
		}
		// Qualified identifier: pkg.Func or pkg.Var.
		switch obj := info.Uses[e.Sel].(type) {
		case *types.Func:
			return resolvedCall(f, c, obj), true
		case *types.Var:
			c.Kind, c.Target = CallFuncValue, obj
			return c, true
		}
		return c, false
	case *ast.FuncLit:
		return c, false // body analyzed inline
	}
	// Call of a call result, an index expression, etc.
	c.Kind = CallFuncValue
	return c, true
}

// resolvedCall fills in the kind for a call whose *types.Func target
// is known: static when its declaration was loaded, interface when the
// target is an interface method, external otherwise.
func resolvedCall(f *Facts, c Call, fn *types.Func) Call {
	c.Callee = fn
	switch {
	case isInterfaceMethod(fn):
		c.Kind = CallInterface
	case f.Funcs[fn] != nil:
		c.Kind = CallStatic
	default:
		c.Kind = CallExternal
	}
	return c
}

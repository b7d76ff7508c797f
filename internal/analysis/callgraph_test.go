package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"testing"
)

const callgraphSrc = `package cg

type impl struct{ n int }

func (i impl) Do() int { return i.n }

type doer interface{ Do() int }

func helper() int {
	var i impl
	return i.Do()
}

func direct() int { return helper() }

func viaIface(d doer) int { return d.Do() }

func viaValue(f func() int) int { return f() }

func inLiteral() int {
	g := func() int { return helper() }
	return g()
}

var _ = direct
var _ = viaIface
var _ = viaValue
var _ = inLiteral
`

// loadCallgraphFixture typechecks the inline source and returns the
// facts layer plus a name → *types.Func index.
func loadCallgraphFixture(t *testing.T) (*Facts, map[string]*types.Func) {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "cg.go", callgraphSrc, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	imp, err := StdImporter("../..", fset)
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := CheckParsed(fset, "example.test/cg", []*ast.File{f}, imp)
	if err != nil {
		t.Fatal(err)
	}
	facts := NewFacts([]*Package{pkg})
	byName := map[string]*types.Func{}
	for fn := range facts.Funcs {
		byName[fn.Name()] = fn
	}
	return facts, byName
}

// StaticCallees returns the deduplicated CallStatic targets of fn, in
// first-call-site order.
func (g *CallGraph) StaticCallees(fn *types.Func) []*types.Func {
	var out []*types.Func
	seen := map[*types.Func]bool{}
	for _, c := range g.calls[fn] {
		if c.Kind == CallStatic && !seen[c.Callee] {
			seen[c.Callee] = true
			out = append(out, c.Callee)
		}
	}
	return out
}

// unresolved returns fn's call sites the graph could not resolve
// (interface and func-value calls), in source order.
func unresolved(g *CallGraph, fn *types.Func) []Call {
	var out []Call
	for _, c := range g.CallsFrom(fn) {
		if c.Kind == CallInterface || c.Kind == CallFuncValue {
			out = append(out, c)
		}
	}
	return out
}

// TestCallGraphDevirtualization: a method call on a concrete receiver
// resolves to a static edge; plain function calls do too, including
// from inside function literals (attributed to the enclosing
// function).
func TestCallGraphDevirtualization(t *testing.T) {
	facts, fns := loadCallgraphFixture(t)
	g := facts.Graph()

	callees := g.StaticCallees(fns["helper"])
	if len(callees) != 1 || callees[0].Name() != "Do" {
		t.Errorf("helper static callees = %v; want the devirtualized impl.Do", callees)
	}
	if fr := unresolved(g, fns["helper"]); len(fr) != 0 {
		t.Errorf("helper unresolved calls = %v; want none", fr)
	}

	callees = g.StaticCallees(fns["direct"])
	if len(callees) != 1 || callees[0] != fns["helper"] {
		t.Errorf("direct static callees = %v; want helper", callees)
	}

	// Calls inside the literal belong to inLiteral; the call through
	// the local variable g is unresolved, but exempt-by-locality is the
	// purity analyzer's policy, not the graph's.
	callees = g.StaticCallees(fns["inLiteral"])
	if len(callees) != 1 || callees[0] != fns["helper"] {
		t.Errorf("inLiteral static callees = %v; want helper (literal body inlined)", callees)
	}
	if fr := unresolved(g, fns["inLiteral"]); len(fr) != 1 || fr[0].Kind != CallFuncValue || fr[0].Target == nil || fr[0].Target.Name() != "g" {
		t.Errorf("inLiteral unresolved calls = %v; want one func-value call through g", fr)
	}
}

// TestCallGraphFrontier: interface method calls and function-value
// calls are recorded with their kinds, not dropped.
func TestCallGraphFrontier(t *testing.T) {
	facts, fns := loadCallgraphFixture(t)
	g := facts.Graph()

	calls := g.CallsFrom(fns["viaIface"])
	if len(calls) != 1 || calls[0].Kind != CallInterface {
		t.Fatalf("viaIface calls = %v; want one interface call", calls)
	}
	if calls[0].Callee == nil || calls[0].Callee.Name() != "Do" {
		t.Errorf("viaIface callee = %v; want the interface method Do", calls[0].Callee)
	}
	if len(g.StaticCallees(fns["viaIface"])) != 0 {
		t.Errorf("viaIface has static callees; the interface call must not devirtualize")
	}

	calls = g.CallsFrom(fns["viaValue"])
	if len(calls) != 1 || calls[0].Kind != CallFuncValue || calls[0].Target == nil || calls[0].Target.Name() != "f" {
		t.Fatalf("viaValue calls = %v; want one func-value call through parameter f", calls)
	}
}

package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Hotpath turns the bench-only allocs/op guard into a compile-time
// gate: functions marked //approx:hotpath (the interner, the shuffle,
// the record readers, strconv-based generators) must avoid
// constructs that allocate per record. Whole-body checks: fmt calls
// and interface boxing at call sites. Per-record-context checks
// (inside loops and function literals, which run once per record):
// string concatenation, string(bytes) conversions, map/slice literals,
// closures capturing outer variables, and append calls whose result is
// not assigned back to the same destination (un-hinted growth).
var Hotpath = &Analyzer{
	Name: "hotpath",
	Doc: "forbid allocation-causing constructs in functions marked //approx:hotpath: " +
		"fmt calls and interface boxing anywhere in the body; string concatenation, " +
		"string(bytes) conversions, map/slice composite literals, variable-capturing " +
		"closures, and un-hinted append (result not assigned back to its first " +
		"argument) inside loops and function literals, which execute per record",
	Run: runHotpath,
}

func runHotpath(p *Pass) {
	for _, fn := range p.Facts.HotpathFuncs {
		if fn.Pkg() != p.Pkg {
			continue
		}
		info := p.Facts.DeclOf(fn)
		if info == nil || info.Decl.Body == nil {
			continue
		}
		h := &hotpathChecker{pass: p, fn: fn.Name()}
		h.checkBody(info.Decl.Body)
	}
}

type hotpathChecker struct {
	pass *Pass
	fn   string
	// hintedAppends holds append call sites of the sanctioned
	// x = append(x, ...) shape.
	hintedAppends map[*ast.CallExpr]bool
}

// checkBody applies the whole-body checks everywhere and enters
// per-record mode at every loop body and function literal.
func (h *hotpathChecker) checkBody(body *ast.BlockStmt) {
	h.walk(body, false)
}

// walk visits nodes below n; perRecord marks code inside a loop or a
// function literal, where the per-record checks also apply.
func (h *hotpathChecker) walk(n ast.Node, perRecord bool) {
	ast.Inspect(n, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.ForStmt:
			h.walkExprs(perRecord, n.Init, n.Cond, n.Post)
			h.walk(n.Body, true)
			return false
		case *ast.RangeStmt:
			h.walkExprs(perRecord, n.X)
			h.walk(n.Body, true)
			return false
		case *ast.FuncLit:
			if perRecord {
				h.checkCapture(n)
			}
			h.walk(n.Body, true)
			return false
		case *ast.CallExpr:
			h.checkCall(n, perRecord)
		case *ast.BinaryExpr:
			if perRecord {
				h.checkConcat(n)
			}
		case *ast.CompositeLit:
			if perRecord {
				h.checkCompositeLit(n)
			}
		case *ast.AssignStmt:
			// Mark hinted appends (x = append(x, ...)) before the
			// CallExpr visit below sees them.
			h.markHintedAppends(n)
		}
		return true
	})
}

// walkExprs visits loop-header components (which stay in the enclosing
// context, not the per-record body).
func (h *hotpathChecker) walkExprs(perRecord bool, nodes ...ast.Node) {
	for _, n := range nodes {
		if n != nil {
			h.walk(n, perRecord)
		}
	}
}

// markHintedAppends records append calls of the x = append(x, ...)
// shape, which grow an existing buffer in place (amortized,
// pre-sizable) and are the sanctioned idiom.
func (h *hotpathChecker) markHintedAppends(as *ast.AssignStmt) {
	if len(as.Lhs) != len(as.Rhs) {
		return
	}
	for i, rhs := range as.Rhs {
		call, ok := ast.Unparen(rhs).(*ast.CallExpr)
		if !ok || !h.isAppend(call) {
			continue
		}
		if len(call.Args) > 0 && exprEqual(as.Lhs[i], call.Args[0]) {
			h.hinted(call)
		}
	}
}

// hintedSet lazily allocates the per-checker set of sanctioned append
// sites.
func (h *hotpathChecker) hinted(call *ast.CallExpr) {
	if h.hintedAppends == nil {
		h.hintedAppends = map[*ast.CallExpr]bool{}
	}
	h.hintedAppends[call] = true
}

func (h *hotpathChecker) isAppend(call *ast.CallExpr) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := h.pass.Info.Uses[id].(*types.Builtin)
	return ok && b.Name() == "append"
}

// checkCall handles fmt calls, boxing, string(bytes) conversions, and
// un-hinted appends.
func (h *hotpathChecker) checkCall(call *ast.CallExpr, perRecord bool) {
	fun := ast.Unparen(call.Fun)

	// Conversions: string([]byte) / string([]rune) copy per record.
	if tv, ok := h.pass.Info.Types[fun]; ok && tv.IsType() {
		if perRecord && isStringOfBytes(h.pass.Info, call) {
			h.pass.Reportf(call.Pos(),
				"hot-path function %s converts a byte slice to string per record, which copies; use zerocopy.String or keep the []byte",
				h.fn)
		}
		return
	}

	if perRecord && h.isAppend(call) && !h.hintedAppends[call] {
		h.pass.Reportf(call.Pos(),
			"hot-path function %s calls append per record without assigning the result back to its first argument; grow a reused buffer (x = append(x, ...)) so capacity amortizes",
			h.fn)
	}

	callee := calleeStatic(h.pass.Info, call)
	if callee != nil && pkgPathOf(callee) == "fmt" {
		h.pass.Reportf(call.Pos(),
			"hot-path function %s calls fmt.%s, which allocates (interface boxing, scratch buffers); use strconv appends or a reused buffer",
			h.fn, callee.Name())
		return // skip the boxing check: fmt's ...any params would double-report
	}
	h.checkBoxing(call)
}

// checkBoxing reports concrete non-pointer-shaped arguments passed to
// interface-typed parameters: each such call boxes the value on the
// heap.
func (h *hotpathChecker) checkBoxing(call *ast.CallExpr) {
	sigTV, ok := h.pass.Info.Types[ast.Unparen(call.Fun)]
	if !ok {
		return
	}
	sig, ok := sigTV.Type.Underlying().(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var paramType types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if call.Ellipsis.IsValid() {
				continue // forwarding a slice: no boxing here
			}
			paramType = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
		case i < params.Len():
			paramType = params.At(i).Type()
		default:
			continue
		}
		if !types.IsInterface(paramType) {
			continue
		}
		argTV := h.pass.Info.Types[arg]
		if argTV.Type == nil || argTV.Value != nil || types.IsInterface(argTV.Type) {
			continue // constants and interface-to-interface: no new box
		}
		if isPointerShaped(argTV.Type) {
			continue
		}
		h.pass.Reportf(arg.Pos(),
			"hot-path function %s boxes a %s into interface %s at this call, which allocates; pass a pointer-shaped value or restructure the call",
			h.fn, argTV.Type.String(), paramType.String())
	}
}

// checkConcat reports string + string inside per-record code.
func (h *hotpathChecker) checkConcat(be *ast.BinaryExpr) {
	if be.Op != token.ADD {
		return
	}
	tv := h.pass.Info.Types[be]
	if tv.Value != nil {
		return // constant-folded at compile time
	}
	if t, ok := tv.Type.(*types.Basic); ok && t.Info()&types.IsString != 0 {
		h.pass.Reportf(be.Pos(),
			"hot-path function %s concatenates strings per record, which allocates; append into a reused []byte instead",
			h.fn)
	}
}

// checkCompositeLit reports map and slice literals inside per-record
// code (each evaluation allocates a fresh backing store).
func (h *hotpathChecker) checkCompositeLit(cl *ast.CompositeLit) {
	t := h.pass.Info.Types[cl].Type
	if t == nil {
		return
	}
	switch t.Underlying().(type) {
	case *types.Map:
		h.pass.Reportf(cl.Pos(),
			"hot-path function %s builds a map literal per record; hoist it out of the loop or reuse a cleared map",
			h.fn)
	case *types.Slice:
		h.pass.Reportf(cl.Pos(),
			"hot-path function %s builds a slice literal per record; hoist it out of the loop or append into a reused buffer",
			h.fn)
	}
}

// checkCapture reports function literals created per record that
// capture outer variables: each evaluation allocates the closure (and
// moves captured variables to the heap).
func (h *hotpathChecker) checkCapture(fl *ast.FuncLit) {
	captured := false
	ast.Inspect(fl.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok || captured {
			return !captured
		}
		v, ok := h.pass.Info.Uses[id].(*types.Var)
		if !ok || v.IsField() {
			return true
		}
		if v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
			return true // package-level: not a capture
		}
		if v.Pos() < fl.Pos() || v.Pos() > fl.End() {
			captured = true
		}
		return true
	})
	if captured {
		h.pass.Reportf(fl.Pos(),
			"hot-path function %s creates a variable-capturing closure per record, which allocates; hoist the closure out of the loop or pass state explicitly",
			h.fn)
	}
}

// exprEqual reports structural equality of the lvalue shapes the
// append-hint check cares about: identifiers, selector chains, index
// expressions, and pointer dereferences.
func exprEqual(a, b ast.Expr) bool {
	a, b = ast.Unparen(a), ast.Unparen(b)
	switch a := a.(type) {
	case *ast.Ident:
		b, ok := b.(*ast.Ident)
		return ok && a.Name == b.Name
	case *ast.SelectorExpr:
		b, ok := b.(*ast.SelectorExpr)
		return ok && a.Sel.Name == b.Sel.Name && exprEqual(a.X, b.X)
	case *ast.IndexExpr:
		b, ok := b.(*ast.IndexExpr)
		return ok && exprEqual(a.X, b.X) && exprEqual(a.Index, b.Index)
	case *ast.StarExpr:
		b, ok := b.(*ast.StarExpr)
		return ok && exprEqual(a.X, b.X)
	case *ast.BasicLit:
		b, ok := b.(*ast.BasicLit)
		return ok && a.Kind == b.Kind && a.Value == b.Value
	}
	return false
}

// isStringOfBytes reports whether the conversion call is
// string([]byte) or string([]rune).
func isStringOfBytes(info *types.Info, call *ast.CallExpr) bool {
	tv := info.Types[call]
	if tv.Type == nil {
		return false
	}
	if t, ok := tv.Type.Underlying().(*types.Basic); !ok || t.Info()&types.IsString == 0 {
		return false
	}
	if len(call.Args) != 1 {
		return false
	}
	argT := info.Types[call.Args[0]].Type
	if argT == nil {
		return false
	}
	_, isSlice := argT.Underlying().(*types.Slice)
	return isSlice
}

// isPointerShaped reports whether values of t fit in a pointer word
// without heap allocation when stored in an interface.
func isPointerShaped(t types.Type) bool {
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature, *types.Interface:
		return true
	}
	return false
}

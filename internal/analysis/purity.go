package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// pureStdlibPrefixes lists standard-library package path prefixes
// whose functions the purity analyzer trusts: pure computation or
// process-local formatting with no scheduler-plane coupling. A prefix
// matches the package itself and everything below it ("math" covers
// math/rand and math/bits). Notably absent: os, net, time, sync,
// runtime — calling those from the compute plane is exactly what the
// analyzer exists to catch. hash/maphash is carved out of "hash": its
// seeds are drawn per process, so anything keyed by it (a table's probe
// order, a sketch's registers) differs from run to run for one input.
var pureStdlibPrefixes = []string{
	"bufio",
	"bytes",
	"errors",
	"fmt",
	"hash",
	"io",
	"math",
	"sort",
	"strconv",
	"strings",
	"unicode",
	"unsafe",
}

func pureStdlibPkg(path string) bool {
	if path == "hash/maphash" {
		return false
	}
	for _, p := range pureStdlibPrefixes {
		if path == p || strings.HasPrefix(path, p+"/") {
			return true
		}
	}
	return false
}

// Purity enforces the two-plane execution contract of the worker-pool
// simulator: map compute runs on pool goroutines concurrently with the
// virtual-time scheduler, so functions marked //approx:compute, and
// everything they reach, must not touch scheduler/engine state, the
// shared Job.Meter, package-level variables or sync.Pool. It follows
// the roots across package boundaries over the static call graph,
// applies those body checks to every function reached, and reports
// every frontier call (interface or function value) that escapes into
// code it cannot analyze — unless the call goes through a declaration
// marked //approx:pure or into a trusted pure stdlib package. Each
// finding carries the call chain from the root that reached it.
var Purity = &Analyzer{
	Name: "purity",
	Doc: "follow //approx:compute roots across package boundaries over the static " +
		"call graph and report (with the full call chain) any scheduler-plane " +
		"touch, package-level variable write, sync.Pool use, or unresolvable " +
		"frontier call — interface methods and function values not marked " +
		"//approx:pure, and calls into non-allowlisted external packages",
	RunProgram: runPurity,
}

func runPurity(p *ProgramPass) {
	f := p.Facts
	graph := f.Graph()

	// Breadth-first walk from the roots in source order; the first
	// chain to reach a function wins, so reports are deterministic.
	type visitState struct {
		chain string // "root → f → g", built from function names
	}
	visited := map[*types.Func]visitState{}
	queue := make([]*types.Func, 0, len(f.ComputeRoots))
	for _, r := range f.ComputeRoots {
		if _, ok := visited[r]; ok {
			continue
		}
		visited[r] = visitState{chain: r.Name()}
		queue = append(queue, r)
	}

	for len(queue) > 0 {
		fn := queue[0]
		queue = queue[1:]
		info := f.DeclOf(fn)
		if info == nil || info.Decl.Body == nil {
			continue
		}
		state := visited[fn]
		chainSuffix := ""
		if strings.Contains(state.chain, "→") {
			chainSuffix = " [call chain: " + state.chain + "]"
		}

		c := &computeBodyChecker{
			info:   info.Pkg.Info,
			pkg:    info.Pkg.Types,
			fn:     fn.Name(),
			chain:  chainSuffix,
			report: p.Reportf,
		}
		c.check(info.Decl.Body)

		for _, call := range graph.CallsFrom(fn) {
			switch call.Kind {
			case CallStatic:
				callee := call.Callee
				// Methods on scheduler-plane types are not part of the
				// compute closure; the selector check above already
				// flags the call site.
				if named := recvNamed(callee); named != nil && schedulerPlaneTypes[named.Obj().Name()] {
					continue
				}
				if _, ok := visited[callee]; ok {
					continue
				}
				visited[callee] = visitState{chain: state.chain + " → " + callee.Name()}
				queue = append(queue, callee)
			case CallExternal:
				callee := call.Callee
				if named := recvNamed(callee); named != nil && isSyncPool(named) {
					continue // the sync.Pool body check already reports this site
				}
				if pureStdlibPkg(pkgPathOf(callee)) {
					continue
				}
				p.Reportf(call.Site.Pos(),
					"compute-plane function %s calls %s.%s, which has no loaded source and is not a trusted pure stdlib package%s",
					fn.Name(), pkgPathOf(callee), callee.Name(), chainSuffix)
			case CallInterface:
				callee := call.Callee
				if pureStdlibPkg(pkgPathOf(callee)) {
					continue
				}
				if named := recvNamed(callee); named != nil && f.PureInterface(named.Obj()) {
					continue
				}
				p.Reportf(call.Site.Pos(),
					"compute-plane function %s calls %s through an interface not marked %s; the concrete implementation cannot be analyzed%s",
					fn.Name(), callee.Name(), pureDirective, chainSuffix)
			case CallFuncValue:
				if exemptFuncValue(f, fn, call) {
					continue
				}
				desc := "a function value"
				if call.Target != nil {
					desc = "function value " + call.Target.Name()
				}
				p.Reportf(call.Site.Pos(),
					"compute-plane function %s calls %s not marked %s; the called code cannot be analyzed%s",
					fn.Name(), desc, pureDirective, chainSuffix)
			}
		}
	}
}

// exemptFuncValue reports whether a func-value call is trusted: the
// value is marked //approx:pure (field or variable), or it is a local
// variable or parameter of the calling function — locals are bound to
// function literals whose bodies were analyzed inline where they were
// created, and parameters receive values produced inside the compute
// plane by an already-checked caller.
func exemptFuncValue(f *Facts, caller *types.Func, call Call) bool {
	v := call.Target
	if v == nil {
		return false
	}
	if f.PureVar(v) {
		return true
	}
	if v.IsField() {
		return false
	}
	if v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
		return false // package-level func variable: anyone may swap it
	}
	// Local or parameter: declared inside the caller's declaration.
	info := f.DeclOf(caller)
	return info != nil && v.Pos() >= info.Decl.Pos() && v.Pos() <= info.Decl.End()
}

// schedulerPlaneTypes are the type names whose state belongs to the
// single-threaded virtual-time plane. Any selector on a value of such
// a type inside compute-plane code is a data race waiting to happen
// (and, even when benign, makes results depend on pool scheduling).
var schedulerPlaneTypes = map[string]bool{
	"tracker":     true,
	"Engine":      true,
	"Server":      true,
	"RunningTask": true,
}

// computeBodyChecker reports every scheduler-plane touch inside one
// compute-plane function body: info and pkg describe the package
// declaring the function, and chain carries the call-chain suffix
// appended to every message.
type computeBodyChecker struct {
	info   *types.Info
	pkg    *types.Package
	fn     string
	chain  string
	report func(pos token.Pos, format string, args ...interface{})
}

func (c *computeBodyChecker) check(body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CompositeLit:
			if named := derefNamed(c.info.Types[n].Type); named != nil && isSyncPool(named) {
				c.reportSyncPool(n.Pos())
			}
		case *ast.ValueSpec:
			for _, id := range n.Names {
				if v, ok := c.info.Defs[id].(*types.Var); ok {
					if named := derefNamed(v.Type()); named != nil && isSyncPool(named) {
						c.reportSyncPool(id.Pos())
					}
				}
			}
		case *ast.SelectorExpr:
			t := c.info.Types[n.X].Type
			if t == nil {
				return true
			}
			named := derefNamed(t)
			if named == nil {
				return true
			}
			if isSyncPool(named) {
				c.reportSyncPool(n.Pos())
			}
			obj := named.Obj()
			if schedulerPlaneTypes[obj.Name()] && fromSchedulerPlane(c.pkg, obj) {
				c.report(n.Pos(),
					"compute-plane function %s touches scheduler-plane %s state (.%s); code reachable from %s runs on pool goroutines and must stay pure%s",
					c.fn, obj.Name(), n.Sel.Name, computeDirective, c.chain)
			}
			if obj.Name() == "Job" && n.Sel.Name == "Meter" {
				c.report(n.Pos(),
					"compute-plane function %s reads the shared Job.Meter; fork a per-attempt meter (Meter.Fork) at decide time instead%s",
					c.fn, c.chain)
			}
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				c.checkPkgVarWrite(lhs)
			}
		case *ast.IncDecStmt:
			c.checkPkgVarWrite(n.X)
		}
		return true
	})
}

// isSyncPool reports whether a named type is sync.Pool. Pools hand
// buffers out in goroutine-scheduling order, so any use inside the
// compute plane lets pool size leak into results.
func isSyncPool(named *types.Named) bool {
	obj := named.Obj()
	return obj.Name() == "Pool" && obj.Pkg() != nil && obj.Pkg().Path() == "sync"
}

func (c *computeBodyChecker) reportSyncPool(pos token.Pos) {
	c.report(pos,
		"compute-plane function %s uses sync.Pool; pool hand-out order depends on goroutine scheduling — keep reusable buffers in attempt-local state instead%s",
		c.fn, c.chain)
}

// fromSchedulerPlane reports whether a named type belongs to the
// analyzed package or the cluster engine package — the two homes of
// scheduler-plane state (fixtures declare local doubles; the real
// Engine/Server/RunningTask live in internal/cluster).
func fromSchedulerPlane(pkg *types.Package, obj *types.TypeName) bool {
	if obj.Pkg() == nil {
		return false
	}
	if obj.Pkg() == pkg {
		return true
	}
	path := obj.Pkg().Path()
	return path == "cluster" || strings.HasSuffix(path, "/cluster")
}

// checkPkgVarWrite reports assignments and inc/dec statements whose
// target resolves to a package-level variable (of any package).
func (c *computeBodyChecker) checkPkgVarWrite(lhs ast.Expr) {
	var obj types.Object
	switch e := lhs.(type) {
	case *ast.Ident:
		obj = c.info.Uses[e]
	case *ast.SelectorExpr:
		obj = c.info.Uses[e.Sel]
	default:
		return
	}
	v, ok := obj.(*types.Var)
	if !ok || v.Pkg() == nil {
		return
	}
	if v.Parent() == v.Pkg().Scope() {
		c.report(lhs.Pos(),
			"compute-plane function %s writes package-level variable %s; pool workers share it, so results would depend on pool scheduling%s",
			c.fn, v.Name(), c.chain)
	}
}

package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

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

// Sharedstate enforces the two-plane execution contract of the
// worker-pool simulator: functions marked //approx:compute, plus
// everything they statically reach inside the same package, must not
// touch scheduler/engine state, the shared Job.Meter, or package-level
// variables. The closure is intra-package; the purity analyzer extends
// the same checks across package boundaries via the call graph and
// reports frontier calls the closure cannot follow.
var Sharedstate = &Analyzer{
	Name: "sharedstate",
	Doc: "forbid compute-plane code (functions marked //approx:compute and their " +
		"same-package callees) from touching scheduler-plane state: selectors on " +
		"tracker/Engine/Server/RunningTask values, the shared Job.Meter, writes " +
		"to package-level variables, and sync.Pool (pool hand-out order depends on " +
		"goroutine scheduling; keep reusable buffers in attempt-local state); map " +
		"compute runs on pool goroutines concurrently with the virtual-time " +
		"scheduler and must stay pure",
	Run: runSharedstate,
}

func runSharedstate(p *Pass) {
	roots := p.Facts.PackageRoots(p.Pkg)
	if len(roots) == 0 {
		return
	}
	// Transitive closure over intra-package static calls, walked
	// through the shared call graph.
	graph := p.Facts.Graph()
	marked := map[*types.Func]bool{}
	var visit func(fn *types.Func)
	visit = func(fn *types.Func) {
		if marked[fn] {
			return
		}
		marked[fn] = true
		for _, callee := range graph.StaticCallees(fn) {
			if callee.Pkg() != p.Pkg {
				continue // cross-package reach is the purity analyzer's job
			}
			// A method on a scheduler-plane type is scheduler-plane
			// code, not part of the compute closure: the call site
			// itself is flagged as the violation.
			if named := recvNamed(callee); named != nil && schedulerPlaneTypes[named.Obj().Name()] {
				continue
			}
			visit(callee)
		}
	}
	for _, r := range roots {
		visit(r)
	}
	for _, fn := range sortedFuncs(marked) {
		info := p.Facts.DeclOf(fn)
		if info == nil || info.Decl.Body == nil {
			continue
		}
		c := &computeBodyChecker{
			info:   p.Info,
			pkg:    p.Pkg,
			fn:     fn.Name(),
			report: p.Reportf,
		}
		c.check(info.Decl.Body)
	}
}

// sortedFuncs returns the set's functions in source-position order,
// for deterministic reporting.
func sortedFuncs(set map[*types.Func]bool) []*types.Func {
	out := make([]*types.Func, 0, len(set))
	for fn := range set {
		out = append(out, fn)
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j].Pos() < out[j-1].Pos(); j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// computeBodyChecker reports every scheduler-plane touch inside one
// compute-plane function body. It is shared by sharedstate (intra-
// package closure) and purity (whole-program closure): info and pkg
// describe the package declaring the function, report routes to the
// owning pass, and chain carries the cross-package call-chain suffix
// purity appends to its messages.
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
					"compute-plane function %s reads the shared Job.Meter; fork a per-attempt meter (vtime.Fork) at decide time instead%s",
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

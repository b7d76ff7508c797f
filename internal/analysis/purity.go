package analysis

import (
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

// Purity is the interprocedural successor to sharedstate: it follows
// //approx:compute roots across package boundaries over the static
// call graph, applies the scheduler-plane body checks to every
// function reached, and reports every frontier call (interface or
// function value) that escapes into code it cannot analyze — unless
// the call goes through a declaration marked //approx:pure or into a
// trusted pure stdlib package. Each finding carries the call chain
// from the root that reached it.
var Purity = &Analyzer{
	Name: "purity",
	Doc: "follow //approx:compute roots across package boundaries over the static " +
		"call graph and report (with the full call chain) any scheduler-plane " +
		"touch, package-level variable write, sync.Pool use, or unresolvable " +
		"frontier call — interface methods and function values not marked " +
		"//approx:pure, and calls into non-allowlisted external packages; the " +
		"intra-package sharedstate closure provably misses violations one " +
		"package away",
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

package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// Seededrand forbids the global math/rand source in non-test code, and
// math/rand's own seeded source outside internal/stats.
var Seededrand = &Analyzer{
	Name: "seededrand",
	Doc: "forbid top-level math/rand functions (the process-global, " +
		"unseeded source) in non-test code; inject a seeded *rand.Rand " +
		"(stats.NewRand) so every sample draw is reproducible. Outside " +
		"internal/stats also forbid rand.New and rand.NewSource: " +
		"stats.NewRand yields the same stream and seeds in proportion " +
		"to what is drawn, where math/rand's source fills all 607 words up front",
	Run: runSeededrand,
}

func runSeededrand(p *Pass) {
	inStats := strings.HasSuffix(p.Path, "internal/stats")
	for _, f := range p.Files {
		if p.InTestFile(f.Pos()) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			fn, ok := p.Info.Uses[sel.Sel].(*types.Func)
			if !ok || fn.Pkg() == nil {
				return true
			}
			path := fn.Pkg().Path()
			if path != "math/rand" && path != "math/rand/v2" {
				return true
			}
			// Methods on *rand.Rand / *rand.Zipf are fine — they draw
			// from an explicitly seeded source. Constructors bind a
			// caller-supplied seed or source and never touch the global
			// generator, but the two that make a math/rand source belong
			// behind stats.NewRand. Only the remaining package-level
			// functions hit the global.
			if strings.HasPrefix(fn.Name(), "New") {
				if name := fn.Name(); path == "math/rand" && (name == "New" || name == "NewSource") && !inStats {
					p.Reportf(sel.Pos(),
						"rand.%s makes math/rand's source, which fills all 607 words at Seed; use stats.NewRand: same stream, seeding proportional to draws",
						name)
				}
				return true
			}
			if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() == nil {
				p.Reportf(sel.Pos(),
					"global math/rand source (rand.%s) is unseeded and process-wide; inject a seeded *rand.Rand (stats.NewRand)",
					fn.Name())
			}
			return true
		})
	}
}

// Command approxlint runs the repository's static-analysis suite (see
// internal/analysis): repo-specific checks that keep the simulator
// deterministic and the statistics trustworthy, including the
// whole-program purity, hotpath, lockheld and deadcode analyzers built
// on the cross-package call graph.
//
// Every run typechecks the whole module around the working directory
// from source, plus each module nested under its root (bench/, found by
// its own go.mod outside testdata/). The package arguments only choose
// whose findings are reported, so one package reports exactly what
// ./... reports for it; a nested module's findings never are. deadcode
// reports a func or method under internal/ that no non-test file of
// that program references (a nested module's tests count), unless it
// matches by name and signature a method of an interface the program
// declares or imports, belongs to a type the root package exports or
// aliases, or is main or init.
//
// Usage:
//
//	approxlint [flags] [packages]
//
//	approxlint ./...                     # everything, all analyzers
//	approxlint -disable nopanic ./...    # all but one
//	approxlint -enable virtualclock ./.. # exactly one
//	approxlint -json ./...               # machine-readable findings
//	approxlint -stale-ignores ./...      # also flag dead suppressions
//
// Findings are suppressed in source with
// `//lint:ignore <analyzer> reason` on the offending line or the line
// above. Exit status: 0 clean, 1 findings, 2 operational error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"approxhadoop/internal/analysis"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		jsonOut = flag.Bool("json", false, "emit findings as a JSON array")
		list    = flag.Bool("list", false, "list analyzers and exit")
		enable  = flag.String("enable", "", "comma-separated analyzers to run (default: all)")
		disable = flag.String("disable", "", "comma-separated analyzers to skip")
		noTests = flag.Bool("notests", false, "skip _test.go files")
		stale   = flag.Bool("stale-ignores", false,
			"also report lint:ignore comments that suppress nothing (requires the full analyzer suite)")
	)
	flag.Parse()

	if *list {
		for _, a := range analysis.All() {
			fmt.Printf("%-14s %s\n", a.Name, a.Doc)
		}
		return 0
	}

	analyzers, err := analysis.Select(*enable, *disable)
	if err != nil {
		fmt.Fprintln(os.Stderr, "approxlint:", err)
		return 2
	}
	if len(analyzers) == 0 {
		fmt.Fprintln(os.Stderr, "approxlint: no analyzers selected")
		return 2
	}
	if *stale && (*enable != "" || *disable != "") {
		// With a subset enabled, directives for the skipped analyzers
		// would be reported as stale even though they still do their
		// job on a full run.
		fmt.Fprintln(os.Stderr, "approxlint: -stale-ignores requires the full analyzer suite (no -enable/-disable)")
		return 2
	}

	loader := &analysis.Loader{Tests: !*noTests}
	pkgs, err := loader.Load(flag.Args()...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "approxlint:", err)
		return 2
	}

	diags := analysis.RunWithOptions(pkgs, analyzers, analysis.Options{StaleIgnores: *stale})
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if diags == nil {
			diags = []analysis.Diagnostic{}
		}
		if err := enc.Encode(diags); err != nil {
			fmt.Fprintln(os.Stderr, "approxlint:", err)
			return 2
		}
	} else {
		for _, d := range diags {
			fmt.Println(d)
		}
	}
	if len(diags) > 0 {
		if !*jsonOut {
			fmt.Fprintf(os.Stderr, "approxlint: %d finding(s)\n", len(diags))
		}
		return 1
	}
	return 0
}

// Command approxbench regenerates the paper's evaluation: every table
// and figure of Section 5 plus the ablation studies from DESIGN.md.
//
// Usage:
//
//	approxbench -experiment all            # everything (several minutes)
//	approxbench -experiment fig6           # one artifact
//	approxbench -experiment fig13 -scale 1 # the scaling series
//	approxbench -experiment fig7 -cpuprofile cpu.out         # pprof
//	approxbench -experiment fig7 -allocprofile allocs.out    # allocation sites
//	approxbench -experiment all -parallel 1 -workers 1       # sequential run
//
// Experiments: table1 table2 fig5 fig6 fig7 fig8 fig9a fig9b fig9c
// fig10 fig11 fig12 fig13 userdef keyspace ablations all — or a
// comma-separated list, e.g. "fig6,fig7". Speed is measured by the
// layered benchmark (bench/run.sh), not here.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"approxhadoop/internal/harness"
)

func fatalf(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "approxbench: "+format+"\n", args...)
	os.Exit(1)
}

func main() {
	var (
		experiment   = flag.String("experiment", "all", "experiment id or comma-separated list (table1,...,fig13,userdef,keyspace,ablations,all)")
		scale        = flag.Float64("scale", 1, "dataset scale multiplier")
		reps         = flag.Int("reps", 3, "repetitions per data point")
		seed         = flag.Int64("seed", 42, "base random seed")
		quick        = flag.Bool("quick", false, "shortcut for -scale 0.1 -reps 1")
		parallel     = flag.Int("parallel", 0, "concurrently simulated jobs (0 = GOMAXPROCS, 1 = sequential)")
		workers      = flag.Int("workers", 0, "map-compute pool size per job (0 = GOMAXPROCS, 1 = inline)")
		cpuprofile   = flag.String("cpuprofile", "", "write a pprof CPU profile to this file")
		memprofile   = flag.String("memprofile", "", "write a pprof heap profile to this file on exit")
		allocprofile = flag.String("allocprofile", "", "write a pprof allocs profile (every allocation site, not just live heap) to this file on exit")
	)
	flag.Parse()

	cfg := harness.Default()
	cfg.Scale = *scale
	cfg.Reps = *reps
	cfg.Seed = *seed
	cfg.Out = os.Stdout
	cfg.Parallel = *parallel
	cfg.Workers = *workers
	if *quick {
		cfg.Scale = 0.1
		cfg.Reps = 1
	}
	r := harness.New(cfg)

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fatalf("%v", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatalf("cpuprofile: %v", err)
		}
		defer pprof.StopCPUProfile()
	}

	type exp struct {
		name string
		run  func() error
	}
	all := []exp{
		{"table1", func() error { _, err := r.Table1(); return err }},
		{"table2", func() error { _, err := r.Table2(); return err }},
		{"fig5", func() error { _, err := r.Fig5(); return err }},
		{"fig6", func() error { _, err := r.Fig6(); return err }},
		{"fig7", func() error { _, err := r.Fig7(); return err }},
		{"fig8", func() error { _, err := r.Fig8(); return err }},
		{"fig9a", func() error { _, err := r.Fig9a(); return err }},
		{"fig9b", func() error { _, err := r.Fig9b(); return err }},
		{"fig9c", func() error { _, err := r.Fig9c(); return err }},
		{"fig10", func() error { _, err := r.Fig10(); return err }},
		{"fig11", func() error { _, err := r.Fig11(); return err }},
		{"fig12", func() error { _, err := r.Fig12(); return err }},
		{"fig13", func() error { _, err := r.Fig13(nil); return err }},
		{"userdef", func() error { _, err := r.UserDefined(); return err }},
		{"keyspace", func() error { _, err := r.KeySpace(); return err }},
		{"ablations", func() error {
			if _, err := r.AblationTaskOrder(); err != nil {
				return err
			}
			if _, err := r.AblationBarrier(); err != nil {
				return err
			}
			if _, err := r.AblationVarianceSplit(); err != nil {
				return err
			}
			_, err := r.AblationCostModel()
			return err
		}},
	}

	want := map[string]bool{}
	for _, name := range strings.Split(strings.ToLower(*experiment), ",") {
		if name = strings.TrimSpace(name); name != "" {
			want[name] = true
		}
	}
	ran := false
	for _, e := range all {
		if !want["all"] && !want[e.name] {
			continue
		}
		ran = true
		start := time.Now()
		if err := e.run(); err != nil {
			fatalf("%s failed: %v", e.name, err)
		}
		fmt.Printf("\n[%s completed in %.1fs wall time]\n", e.name, time.Since(start).Seconds())
	}
	if !ran {
		fmt.Fprintf(os.Stderr, "approxbench: unknown experiment %q\n", *experiment)
		os.Exit(2)
	}

	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			fatalf("%v", err)
		}
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fatalf("memprofile: %v", err)
		}
		if err := f.Close(); err != nil {
			fatalf("memprofile: %v", err)
		}
	}
	if *allocprofile != "" {
		f, err := os.Create(*allocprofile)
		if err != nil {
			fatalf("%v", err)
		}
		// The allocs profile keeps freed objects, so it attributes the
		// full churn of the run to its call sites — the view that
		// matters for the zero-allocation data plane, where -memprofile
		// (live heap) would show almost nothing.
		if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
			fatalf("allocprofile: %v", err)
		}
		if err := f.Close(); err != nil {
			fatalf("allocprofile: %v", err)
		}
	}
}

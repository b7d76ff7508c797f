// Command layerbench is the repository's benchmark: six named
// workloads across the batch, sketch, stream and service planes, each
// checked against a reference the benchmark computes itself, reported
// as end-to-end metrics (untraced) and, in a separate traced pass, as
// per-layer metrics with a span file. README.md has the tables.
//
//	bash bench/run.sh                          # all six, untraced
//	bash bench/run.sh -trace 1                 # all six, untraced then traced
//	bash bench/run.sh -workload keys-target -seed 2 -seconds 10 -trace 0
//	bash bench/run.sh -aa                      # two sets of the same code
//	bash bench/run.sh -compare a.json b.json
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// workloadTimeout bounds one run of one workload: past it the run
// counts as failed instead of hanging (the driver allows 180 s).
const workloadTimeout = 150 * time.Second

func main() {
	var (
		names   = flag.String("workload", "all", "workload to run, a comma-separated list, or all")
		seed    = flag.Int64("seed", 1, "seed every generator and job seed derives from")
		seconds = flag.Float64("seconds", 16, "seconds each workload measures for")
		trace   = flag.Int("trace", 0, "1: traced pass (per-layer metrics and bench/out/trace-<workload>.jsonl); with several workloads the untraced pass runs first")
		aa      = flag.Bool("aa", false, "run two untraced sets of the same code and compare them against the bounds")
		compare = flag.Bool("compare", false, "compare two saved results: -compare base.json change.json")
		out     = flag.String("out", defaultOutDir(), "directory for results.json, traces and temporary journals")
	)
	flag.Parse()
	if raceEnabled {
		fatal("built with -race: timings would be several times off; rebuild without it")
	}
	if *compare {
		if flag.NArg() != 2 {
			fatal("usage: -compare base.json change.json")
		}
		base, err := loadResults(flag.Arg(0))
		if err != nil {
			fatal("%v", err)
		}
		change, err := loadResults(flag.Arg(1))
		if err != nil {
			fatal("%v", err)
		}
		if !compareTable(os.Stdout, base, change) {
			os.Exit(1)
		}
		return
	}
	if flag.NArg() != 0 {
		fatal("unexpected arguments %q", flag.Args())
	}
	if *seconds <= 0 || *seconds > 60 {
		fatal("-seconds must be in (0, 60]")
	}
	if *trace != 0 && *trace != 1 {
		fatal("-trace takes 0 or 1")
	}
	selected, err := selectWorkloads(*names)
	if err != nil {
		fatal("%v", err)
	}
	cfg := &runConfig{seed: *seed, seconds: *seconds, procs: procs(), outDir: *out, sz: fullSizes}
	set := &resultSet{Meta: newMeta(cfg)}

	// One workload is the driver's protocol: one run, its result as
	// the last line of standard output.
	if len(selected) == 1 && !*aa {
		cfg.trace = *trace == 1
		r := runOne(cfg, selected[0])
		printResult(os.Stdout, r)
		set.Results = append(set.Results, r)
		save(cfg, set)
		line, err := contractLine(r)
		if err != nil {
			fatal("%v", err)
		}
		fmt.Printf("%s\n", line)
		return
	}

	if *aa {
		// Alternate which set a workload's first run belongs to, so
		// neither set always runs on the warmer machine.
		for i, w := range selected {
			first, second := &set.Results, &set.ResultsB
			if i%2 == 1 {
				first, second = second, first
			}
			for _, into := range []*[]*result{first, second} {
				r := runOne(cfg, w)
				printResult(os.Stdout, r)
				*into = append(*into, r)
			}
		}
		ok := aaTable(os.Stdout, set)
		save(cfg, set)
		if !ok {
			os.Exit(1)
		}
		return
	}
	failed := 0
	pass := func(traced bool) {
		c := *cfg
		c.trace = traced
		for _, w := range selected {
			r := runOne(&c, w)
			printResult(os.Stdout, r)
			failed += r.Failed
			set.Results = append(set.Results, r)
		}
	}
	pass(false)
	if *trace == 1 {
		pass(true)
	}
	save(cfg, set)
	if failed > 0 {
		os.Exit(1)
	}
}

// runOne runs one workload under the whole-workload timeout and writes
// its span file when traced. A run that errors or times out ends the
// process: nothing it measured can be trusted.
func runOne(cfg *runConfig, w workloadDef) *result {
	type outcome struct {
		r   *result
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		r, err := w.run(cfg)
		done <- outcome{r, err}
	}()
	select {
	case o := <-done:
		if o.err != nil {
			fatal("%s: %v", w.Name, o.err)
		}
		if cfg.trace {
			path, err := writeTrace(cfg.outDir, w.Name, o.r.spans)
			if err != nil {
				fatal("%s: %v", w.Name, err)
			}
			fmt.Fprintf(os.Stderr, "%s: %d spans in %s\n", w.Name, len(o.r.spans), path)
		}
		return o.r
	case <-time.After(workloadTimeout):
		// The workload still holds its temporary journals; drop them.
		for _, pattern := range []string{"journal-*", "probe-journal-*"} {
			dirs, _ := filepath.Glob(filepath.Join(cfg.outDir, pattern))
			for _, d := range dirs {
				os.RemoveAll(d)
			}
		}
		fatal("%s: no result after %v; counted as failed", w.Name, workloadTimeout)
		return nil
	}
}

func save(cfg *runConfig, set *resultSet) {
	path, err := writeResults(cfg.outDir, set)
	if err != nil {
		fatal("%v", err)
	}
	fmt.Fprintf(os.Stderr, "results in %s\n", path)
}

func selectWorkloads(names string) ([]workloadDef, error) {
	if names == "all" || names == "" {
		return workloads, nil
	}
	var out []workloadDef
	for _, n := range strings.Split(names, ",") {
		w, ok := findWorkload(strings.TrimSpace(n))
		if !ok {
			return nil, fmt.Errorf("unknown workload %q", n)
		}
		out = append(out, w)
	}
	return out, nil
}

// defaultOutDir is bench/out when run from the repository root (as
// run.sh does) and out when run from inside bench/.
func defaultOutDir() string {
	if _, err := os.Stat("bench/go.mod"); err == nil {
		return "bench/out"
	}
	return "out"
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "layerbench: "+format+"\n", args...)
	os.Exit(2)
}

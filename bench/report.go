package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
)

// metricsFor returns the declared metrics a run of the given kind must
// print: every end-to-end metric untraced, every per-layer one traced.
func metricsFor(trace bool) []metricDef {
	if trace {
		return perLayer
	}
	return endToEnd
}

// printResult prints every metric of one run by name with its unit.
func printResult(w io.Writer, r *result) {
	kind := "end-to-end"
	if r.Trace {
		kind = "per-layer (traced)"
	}
	fmt.Fprintf(w, "%s  seed %d  %s  n=%d ops  attempted %d  failed %d  failed_ratio %.4g\n",
		r.Workload, r.Seed, kind, r.Samples, r.Attempted, r.Failed, ratio(float64(r.Failed), float64(r.Attempted)))
	for _, d := range metricsFor(r.Trace) {
		fmt.Fprintf(w, "  %-42s %16.6g %s\n", d.Name, r.Metrics[d.Name], d.Unit)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(w, "  ! %s\n", n)
	}
}

// contractLine renders the one-line JSON result the driver reads: the
// declared metrics of the run's kind, each with value and unit. A
// per-layer metric the workload does not exercise reads 0.
func contractLine(r *result) ([]byte, error) {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, map[string]mv{}}
	for _, d := range metricsFor(r.Trace) {
		v := r.Metrics[d.Name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		out.Metrics[d.Name] = mv{v, d.Unit}
	}
	return json.Marshal(out)
}

// runMeta describes the machine and settings of a saved result set.
type runMeta struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	P          int     `json:"p"`
	GoVersion  string  `json:"go"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
}

// resultSet is what results.json holds.
type resultSet struct {
	Meta    runMeta   `json:"meta"`
	Results []*result `json:"results"`
	// ResultsB and AAGaps are present when the set came from -aa: the
	// second set, and per workload and end-to-end metric the relative
	// gap between the two sets of the same code.
	ResultsB []*result                     `json:"results_b,omitempty"`
	AAGaps   map[string]map[string]float64 `json:"aa_gaps,omitempty"`
}

func newMeta(cfg *runConfig) runMeta {
	return runMeta{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), P: cfg.procs,
		GoVersion: runtime.Version(), Seed: cfg.seed, Seconds: cfg.seconds,
	}
}

func writeResults(dir string, set *resultSet) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	data, err := json.MarshalIndent(set, "", "  ")
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, "results.json")
	return path, os.WriteFile(path, append(data, '\n'), 0o644)
}

func loadResults(path string) (*resultSet, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var set resultSet
	if err := json.Unmarshal(data, &set); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &set, nil
}

// untraced returns the set's end-to-end results by workload.
func untraced(rs []*result) map[string]*result {
	out := map[string]*result{}
	for _, r := range rs {
		if !r.Trace {
			out[r.Workload] = r
		}
	}
	return out
}

// worseBy is how much worse b is than a as a share of a, positive when
// worse in the metric's direction.
func worseBy(d metricDef, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	if d.Better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// aaTable prints, per workload and end-to-end metric, both values of
// two runs of the same code, their relative gap and the bound, records
// the gaps in the set, and reports whether every gap is within its
// bound.
func aaTable(w io.Writer, set *resultSet) bool {
	a, b := untraced(set.Results), untraced(set.ResultsB)
	set.AAGaps = map[string]map[string]float64{}
	ok := true
	fmt.Fprintf(w, "%-18s %-20s %14s %14s %8s %7s\n", "workload", "metric", "set A", "set B", "gap", "bound")
	for _, wl := range workloads {
		ra, rb := a[wl.Name], b[wl.Name]
		if ra == nil || rb == nil {
			continue
		}
		set.AAGaps[wl.Name] = map[string]float64{}
		for _, d := range endToEnd {
			va, vb := ra.Metrics[d.Name], rb.Metrics[d.Name]
			gap := ratio(math.Abs(va-vb), (va+vb)/2)
			set.AAGaps[wl.Name][d.Name] = gap
			mark := ""
			if gap > d.Bound {
				mark, ok = "  OVER", false
			}
			fmt.Fprintf(w, "%-18s %-20s %14.6g %14.6g %7.1f%% %6.0f%%%s\n", wl.Name, d.Name, va, vb, 100*gap, 100*d.Bound, mark)
		}
		if ra.Failed+rb.Failed > 0 {
			fmt.Fprintf(w, "%-18s failed ops: %d and %d\n", wl.Name, ra.Failed, rb.Failed)
			ok = false
		}
	}
	return ok
}

// compareTable prints the same table for two saved result sets, base
// first. A metric whose A/A gap (in either file) is wider than its
// bound is unresolved: the benchmark cannot tell a change that size
// from noise. It reports whether no resolved metric regressed.
func compareTable(w io.Writer, base, change *resultSet) bool {
	a, b := untraced(base.Results), untraced(change.Results)
	ok := true
	fmt.Fprintf(w, "%-18s %-20s %14s %14s %8s %7s  %s\n", "workload", "metric", "base", "change", "worse", "bound", "verdict")
	for _, wl := range workloads {
		ra, rb := a[wl.Name], b[wl.Name]
		if ra == nil || rb == nil {
			continue
		}
		for _, d := range endToEnd {
			va, vb := ra.Metrics[d.Name], rb.Metrics[d.Name]
			worse := worseBy(d, va, vb)
			noise := math.Max(base.AAGaps[wl.Name][d.Name], change.AAGaps[wl.Name][d.Name])
			verdict := "ok"
			switch {
			case noise > d.Bound:
				verdict = "unresolved"
			case worse > d.Bound:
				verdict, ok = "REGRESSION", false
			case worse < -d.Bound:
				verdict = "improved"
			}
			fmt.Fprintf(w, "%-18s %-20s %14.6g %14.6g %+7.1f%% %6.0f%%  %s\n", wl.Name, d.Name, va, vb, 100*worse, 100*d.Bound, verdict)
		}
		if rb.Failed > ra.Failed {
			fmt.Fprintf(w, "%-18s failed ops rose from %d to %d\n", wl.Name, ra.Failed, rb.Failed)
			ok = false
		}
	}
	return ok
}

// Package harness runs the paper's evaluation: for every table and
// figure in Section 5 it regenerates the corresponding rows/series on
// the simulated cluster, reporting runtime, energy, actual error
// (approximate vs precise executions on the same data) and the 95%
// confidence intervals ApproxHadoop computed.
//
// Experiments follow the paper's methodology: each configuration is
// repeated Reps times with different seeds (the paper uses 20); for
// multi-key outputs, the reported error/interval belongs to the key
// with the maximum predicted absolute error.
package harness

import (
	"fmt"
	"io"
	"math"
	"runtime"
	"sync"
	"text/tabwriter"

	"approxhadoop/internal/apps"
	"approxhadoop/internal/cluster"
	"approxhadoop/internal/mapreduce"
)

// Config parameterizes a harness run.
type Config struct {
	// Scale multiplies per-block record counts (1 = default laptop
	// scale; benches use smaller values).
	Scale float64
	// Reps is the number of repetitions per data point (paper: 20).
	Reps int
	// Cluster is the simulated cluster configuration.
	Cluster cluster.Config
	// Cost converts task measurements into virtual durations; the
	// default is cluster.PaperCost(), calibrated to paper-scale seconds.
	Cost cluster.CostModel
	// Seed is the base seed; repetition r uses Seed + r.
	Seed int64
	// Out receives the printed tables (defaults to io.Discard).
	Out io.Writer
	// Parallel bounds how many simulated jobs run concurrently:
	// repetitions and independent figure cells fan out across
	// goroutines, each with its own engine, and their results are
	// folded in repetition order so every table and chart is
	// bit-identical to a sequential run. 0 = GOMAXPROCS; 1 = strictly
	// sequential.
	Parallel int
	// Workers is forwarded to Job.Workers for every job the harness
	// builds: the per-job map-compute pool size (0 = GOMAXPROCS,
	// 1 = inline).
	Workers int
}

// Default returns the standard harness configuration.
func Default() Config {
	return Config{
		Scale:   1,
		Reps:    3,
		Cluster: cluster.DefaultConfig(),
		Cost:    cluster.PaperCost(),
		Seed:    42,
	}
}

// Runner executes experiments.
type Runner struct {
	cfg Config
	out io.Writer
	// sem bounds concurrently simulated jobs: only leaf runJob calls
	// acquire a slot, so nested fan-out (cells spawning reps) cannot
	// deadlock waiting on slots its own children hold.
	sem chan struct{}
}

// New builds a Runner, applying defaults for zero fields.
func New(cfg Config) *Runner {
	if cfg.Scale <= 0 {
		cfg.Scale = 1
	}
	if cfg.Reps <= 0 {
		cfg.Reps = 1
	}
	if cfg.Cluster.Servers == 0 {
		cfg.Cluster = cluster.DefaultConfig()
	}
	if cfg.Cost == nil {
		cfg.Cost = cluster.PaperCost()
	}
	if cfg.Parallel <= 0 {
		cfg.Parallel = runtime.GOMAXPROCS(0)
	}
	out := cfg.Out
	if out == nil {
		out = io.Discard
	}
	return &Runner{cfg: cfg, out: out, sem: make(chan struct{}, cfg.Parallel)}
}

// scaleN scales a record count by the configured scale (min 10).
func (r *Runner) scaleN(n int) int { return apps.Scaled(n, r.cfg.Scale) }

// opts assembles app options for one repetition.
func (r *Runner) opts(ctl mapreduce.Controller, rep int, sleepIdle bool) apps.Options {
	return apps.Options{
		Controller: ctl,
		Cost:       r.cfg.Cost,
		Seed:       r.cfg.Seed + int64(rep)*7919,
		SleepIdle:  sleepIdle,
	}
}

// runJob executes one job on a fresh simulated cluster. It is the
// only place experiment fan-out blocks on the Parallel semaphore, and
// is safe to call from concurrent goroutines: every call gets its own
// engine, and job results depend only on (job, seed).
func (r *Runner) runJob(job *mapreduce.Job) (*mapreduce.Result, error) {
	return r.runJobOn(r.cfg.Cluster, job)
}

// runJobOn is runJob with a custom cluster configuration (used by the
// experiments that simulate the paper's DC-placement and Atom
// clusters).
func (r *Runner) runJobOn(cfg cluster.Config, job *mapreduce.Job) (*mapreduce.Result, error) {
	if job.Workers == 0 {
		job.Workers = r.cfg.Workers
	}
	r.sem <- struct{}{}
	defer func() { <-r.sem }()
	eng := cluster.New(cfg)
	return mapreduce.Run(eng, job)
}

// parallelMap runs f(0..n-1) across goroutines — one per index, with
// actual simulation work bounded by the runJob semaphore — and
// returns the lowest-index error so failure reporting does not depend
// on completion order. With Parallel=1 (or a single index) it runs
// inline.
func (r *Runner) parallelMap(n int, f func(i int) error) error {
	if n <= 1 || r.cfg.Parallel <= 1 {
		for i := 0; i < n; i++ {
			if err := f(i); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, n)
	var wg sync.WaitGroup
	wg.Add(n)
	for i := 0; i < n; i++ {
		i := i
		go func() {
			defer wg.Done()
			errs[i] = f(i)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// WorstKey returns the output whose predicted absolute error is
// largest (finite errors preferred; an infinite bound wins only when
// nothing finite exists), which is the key the paper reports.
func WorstKey(res *mapreduce.Result) (mapreduce.KeyEstimate, bool) {
	var best mapreduce.KeyEstimate
	found := false
	bestFinite := false
	for _, o := range res.Outputs {
		finite := !math.IsInf(o.Est.Err, 1) && !math.IsNaN(o.Est.Err)
		switch {
		case !found:
			best, found, bestFinite = o, true, finite
		case finite && !bestFinite:
			best, bestFinite = o, true
		case finite == bestFinite && o.Est.Err > best.Est.Err:
			best = o
		}
	}
	return best, found
}

// ActualError compares an approximate run against the precise run: it
// returns the relative actual error and the relative CI half-width of
// the approximate run's worst (max predicted absolute error) key.
func ActualError(precise, apx *mapreduce.Result) (actualRel, ciRel float64) {
	worst, ok := WorstKey(apx)
	if !ok {
		return 0, 0
	}
	p, ok := precise.Output(worst.Key)
	if !ok || p.Est.Value == 0 {
		return math.NaN(), worst.Est.RelErr()
	}
	return math.Abs(worst.Est.Value-p.Est.Value) / math.Abs(p.Est.Value), worst.Est.RelErr()
}

// Point is one measured configuration of a sweep.
type Point struct {
	Label     string  // e.g. "drop=25% sample=10%"
	Drop      float64 // dropping ratio
	Sample    float64 // sampling ratio
	Target    float64 // target error (target-mode sweeps)
	Runtime   float64 // mean virtual seconds
	RunMin    float64
	RunMax    float64
	ActualPct float64 // mean actual error, percent
	CIPct     float64 // mean 95% CI half-width, percent
	EnergyWh  float64 // mean energy
	MapsRun   float64 // mean maps completed
}

// repeat runs `build` cfg.Reps times and aggregates runtime/energy and
// error against the per-rep precise baselines. Repetitions simulate
// concurrently (each on its own engine); the aggregation below always
// folds results in repetition order, so the float sums — and hence
// every reported mean — are bit-identical to a sequential run.
func (r *Runner) repeat(build func(rep int) (*mapreduce.Job, error), precise []*mapreduce.Result) (Point, error) {
	results := make([]*mapreduce.Result, r.cfg.Reps)
	if err := r.parallelMap(r.cfg.Reps, func(rep int) error {
		job, err := build(rep)
		if err != nil {
			return err
		}
		res, err := r.runJob(job)
		if err != nil {
			return err
		}
		results[rep] = res
		return nil
	}); err != nil {
		return Point{}, err
	}
	var p Point
	p.RunMin = math.Inf(1)
	p.RunMax = math.Inf(-1)
	var actSum, ciSum float64
	actN := 0
	for rep := 0; rep < r.cfg.Reps; rep++ {
		res := results[rep]
		p.Runtime += res.Runtime
		p.EnergyWh += res.EnergyWh
		p.MapsRun += float64(res.Counters.MapsCompleted)
		if res.Runtime < p.RunMin {
			p.RunMin = res.Runtime
		}
		if res.Runtime > p.RunMax {
			p.RunMax = res.Runtime
		}
		if precise != nil {
			act, ci := ActualError(precise[rep%len(precise)], res)
			if !math.IsNaN(act) {
				actSum += act
				actN++
			}
			if !math.IsInf(ci, 1) && !math.IsNaN(ci) {
				ciSum += ci
			}
		}
	}
	n := float64(r.cfg.Reps)
	p.Runtime /= n
	p.EnergyWh /= n
	p.MapsRun /= n
	if actN > 0 {
		p.ActualPct = actSum / float64(actN) * 100
	}
	p.CIPct = ciSum / n * 100
	return p, nil
}

// printPoints renders a sweep as an aligned table.
func (r *Runner) printPoints(title string, cols []string, rows [][]string) {
	fmt.Fprintf(r.out, "\n== %s ==\n", title)
	tw := tabwriter.NewWriter(r.out, 2, 4, 2, ' ', 0)
	for i, c := range cols {
		if i > 0 {
			fmt.Fprint(tw, "\t")
		}
		fmt.Fprint(tw, c)
	}
	fmt.Fprintln(tw)
	for _, row := range rows {
		for i, c := range row {
			if i > 0 {
				fmt.Fprint(tw, "\t")
			}
			fmt.Fprint(tw, c)
		}
		fmt.Fprintln(tw)
	}
	//lint:ignore errcheck report output is best-effort; a failed flush of the table writer has nowhere to surface
	tw.Flush()
}

func f1(v float64) string { return fmt.Sprintf("%.1f", v) }
func f2(v float64) string { return fmt.Sprintf("%.2f", v) }
func f3(v float64) string { return fmt.Sprintf("%.3f", v) }

func pct(v float64) string {
	if math.IsInf(v, 1) {
		return "inf"
	}
	return fmt.Sprintf("%.2f%%", v)
}

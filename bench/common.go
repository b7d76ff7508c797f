package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// sizes are the input dimensions of the workloads. fullSizes is what
// the issue fixed and every recorded number uses; tinySizes exists only
// so bench_test.go can exercise the whole program in a few seconds.
type sizes struct {
	accessBlocks, accessLines int // Fig 7 access log: 740 x 2000
	sketchBlocks              int // sketch-topk reads the first 370 blocks
	webBlocks, webLines       int // stream input: 80 x 8000
	streamRate                float64
	serviceBlocks             int // LoadSpec.Blocks raised to 96
	serviceWarmOps            int // set-up: warms the process
	serviceRoundWarmOps       int // before each round, on the round's fresh daemon
	heavyKeys                 int // oracle: the 50 heaviest keys
	setupReps                 int // set-up repeated, median reported
	probeScale                float64
}

var fullSizes = sizes{
	accessBlocks: 740, accessLines: 2000, sketchBlocks: 370,
	webBlocks: 80, webLines: 8000, streamRate: 4000,
	serviceBlocks: 96, serviceWarmOps: 200, serviceRoundWarmOps: 20,
	heavyKeys: 50, setupReps: 3, probeScale: 1,
}

var tinySizes = sizes{
	accessBlocks: 60, accessLines: 400, sketchBlocks: 30,
	webBlocks: 8, webLines: 2000, streamRate: 1000,
	serviceBlocks: 24, serviceWarmOps: 4, serviceRoundWarmOps: 2,
	heavyKeys: 20, setupReps: 1, probeScale: 0.02,
}

// runConfig is one invocation of one workload.
type runConfig struct {
	seed    int64
	seconds float64
	trace   bool
	procs   int // P = min(nproc, 4): clients, shards and the pool cap
	outDir  string
	sz      sizes
}

// result is what one run of one workload reports.
type result struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Trace     bool               `json:"trace"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Correct   bool               `json:"correct"`
	Notes     []string           `json:"notes,omitempty"` // why ops failed
	Metrics   map[string]float64 `json:"metrics"`
	// Samples is the number of timed ops behind the latency metrics and
	// Rounds the number of rounds they fell into (untraced runs).
	Samples int `json:"samples"`
	Rounds  int `json:"rounds,omitempty"`
	// WholeRun holds the time-based end-to-end metrics computed over the
	// whole timed phase and RoundValues their value in each round, in
	// order; the run reports the best round (untraced runs).
	WholeRun    map[string]float64   `json:"whole_run,omitempty"`
	RoundValues map[string][]float64 `json:"round_values,omitempty"`

	spans []span // traced runs only; written to trace-<workload>.jsonl
}

func newResult(name string, cfg *runConfig) *result {
	return &result{Workload: name, Seed: cfg.seed, Trace: cfg.trace, Metrics: map[string]float64{}}
}

// fail records n failed ops with the reason.
func (r *result) fail(n int, format string, args ...any) {
	if n <= 0 {
		return
	}
	r.Failed += n
	if len(r.Notes) < 16 {
		r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
	}
}

// finish clamps the failure count and derives Correct.
func (r *result) finish() {
	if r.Attempted < 1 {
		r.Attempted = 1
		r.fail(1, "no op completed")
	}
	if r.Failed > r.Attempted {
		r.Failed = r.Attempted
	}
	r.Correct = r.Failed == 0
}

// procs returns P, the number of cores the load is sized for.
func procs() int {
	p := runtime.NumCPU()
	if p > 4 {
		p = 4
	}
	if p < 1 {
		p = 1
	}
	return p
}

// percentile returns the p-quantile of xs by nearest rank (0 when
// empty); xs need not be sorted and is not modified.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(p*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio returns a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// cpuSeconds is the process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// usage is a snapshot of the process-wide cost counters the end-to-end
// metrics are deltas of, or such a delta.
type usage struct {
	alloc, mallocs uint64
	cpu            float64
}

func readUsage() usage {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return usage{alloc: m.TotalAlloc, mallocs: m.Mallocs, cpu: cpuSeconds()}
}

// timedRounds is how many rounds the timed phase of an untraced run is
// cut into. Each time-based end-to-end metric is computed per round and
// the run reports its best round: on a shared host a neighbour slows
// the machine by a quarter to a half for seconds at a time and never
// speeds it up, so a figure over the whole phase measures how much of
// the run the neighbour was busy for, and the best round the program.
// README.md, "Steadiness".
const timedRounds = 16

// round is one slice of the timed phase.
type round struct {
	opMS    []float64 // wall per op, ms
	wall    float64   // seconds the ops took
	records int64     // input records answered
	cost    usage     // CPU seconds, bytes and objects allocated
}

// measured is the timed phase of one workload, in the units the
// end-to-end metrics share: per-op wall times, the busy wall they sum
// to (or, for the service, the wall-clock window), and input records,
// over the whole phase and per round.
type measured struct {
	opMS    []float64 // wall per op, ms
	wall    float64   // seconds the ops took
	records int64     // input records answered
	rounds  []round
	// What the phase had done, and the process spent, when the current
	// round began.
	markOps     int
	markWall    float64
	markRecords int64
	mark        usage
}

// beginRound starts the cost counters of a round. The first round needs
// it; a later one only when the process did something between rounds
// that is not the round's, as the service does when it boots a daemon.
func (m *measured) beginRound() { m.mark = readUsage() }

// endRound closes the current round and begins the next: what was
// appended to opMS, wall and records since the last round closed is the
// round's. A round without an op is not recorded.
func (m *measured) endRound() {
	now := readUsage()
	if len(m.opMS) > m.markOps {
		m.rounds = append(m.rounds, round{
			opMS:    m.opMS[m.markOps:len(m.opMS):len(m.opMS)],
			wall:    m.wall - m.markWall,
			records: m.records - m.markRecords,
			cost:    usage{alloc: now.alloc - m.mark.alloc, mallocs: now.mallocs - m.mark.mallocs, cpu: now.cpu - m.mark.cpu},
		})
	}
	m.markOps, m.markWall, m.markRecords, m.mark = len(m.opMS), m.wall, m.records, now
}

// roundTarget is the wall the phase should have measured when round i
// (from 0) of a phase of the given length closes. Targets are cumulative
// so that an op that overruns one round shortens the next.
func roundTarget(seconds float64, i int) float64 {
	return seconds * float64(i+1) / timedRounds
}

// bestRound returns the best of the rounds' values of a metric: the
// lowest when lower is better, the highest when higher is.
func bestRound(xs []float64, better string) float64 {
	if better == "higher" {
		return percentile(xs, 1)
	}
	return percentile(xs, 0)
}

// endToEndMetrics fills every end-to-end metric except setup_s: the
// time-based ones from the best round, the counts over all rounds (they
// do not depend on the machine's speed). The whole-phase figures of the
// time-based metrics go to r.WholeRun, every round's to r.RoundValues.
func (m *measured) endToEndMetrics(r *result) {
	ops := float64(len(m.opMS))
	r.Samples = len(m.opMS)
	r.Rounds = len(m.rounds)
	var p50, opsPerS, recsPerS, cpuPerOp []float64
	var total usage
	for _, rd := range m.rounds {
		n := float64(len(rd.opMS))
		p50 = append(p50, median(rd.opMS))
		opsPerS = append(opsPerS, ratio(n, rd.wall))
		recsPerS = append(recsPerS, ratio(float64(rd.records), rd.wall))
		cpuPerOp = append(cpuPerOp, ratio(rd.cost.cpu*1e3, n))
		total.alloc += rd.cost.alloc
		total.mallocs += rd.cost.mallocs
		total.cpu += rd.cost.cpu
	}
	r.Metrics["op_wall_ms_p50"] = bestRound(p50, "lower")
	r.Metrics["ops_per_s"] = bestRound(opsPerS, "higher")
	r.Metrics["records_per_s"] = bestRound(recsPerS, "higher")
	r.Metrics["cpu_ms_per_op"] = bestRound(cpuPerOp, "lower")
	r.Metrics["alloc_bytes_per_op"] = ratio(float64(total.alloc), ops)
	r.Metrics["mallocs_per_op"] = ratio(float64(total.mallocs), ops)
	r.WholeRun = map[string]float64{
		"op_wall_ms_p50": median(m.opMS),
		"ops_per_s":      ratio(ops, m.wall),
		"records_per_s":  ratio(float64(m.records), m.wall),
		"cpu_ms_per_op":  ratio(total.cpu*1e3, ops),
	}
	r.RoundValues = map[string][]float64{
		"op_wall_ms_p50": p50, "ops_per_s": opsPerS, "records_per_s": recsPerS, "cpu_ms_per_op": cpuPerOp,
	}
}

// timedSetup runs setup cfg.sz.setupReps times, tearing down all but
// the last, and returns the last set-up with the median set-up time.
func timedSetup[T any](cfg *runConfig, setup func() (T, error), teardown func(T)) (T, float64, error) {
	var (
		last T
		secs []float64
	)
	for i := 0; i < cfg.sz.setupReps; i++ {
		if i > 0 {
			teardown(last)
		}
		t0 := time.Now()
		v, err := setup()
		if err != nil {
			return last, 0, err
		}
		secs = append(secs, time.Since(t0).Seconds())
		last = v
	}
	return last, median(secs), nil
}

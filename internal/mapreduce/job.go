package mapreduce

import (
	"errors"
	"fmt"

	"approxhadoop/internal/cluster"
	"approxhadoop/internal/dfs"
	"approxhadoop/internal/vtime"
)

// RetryPolicy bounds the JobTracker's response to task attempts lost
// to faults. The zero value reproduces classic Hadoop semantics:
// unlimited immediate re-execution, no blacklisting, no deadline.
type RetryPolicy struct {
	// MaxAttemptsPerTask caps launches (first attempt + retries) of
	// one logical map task; a task whose last allowed attempt fails is
	// exhausted — degraded to a dropped cluster under DegradeToDrop,
	// otherwise a job error. 0 = unlimited.
	MaxAttemptsPerTask int
	// Backoff is the virtual-time delay before re-queuing a failed
	// task, doubling per failed attempt (exponential backoff). 0 =
	// immediate re-queue.
	Backoff float64
	// BlacklistAfter removes a server from map scheduling after it has
	// hosted this many failed attempts (Hadoop's TaskTracker
	// blacklisting). Blacklisting does not destroy the server's block
	// replicas and does not touch work already running there. 0 =
	// never blacklist.
	BlacklistAfter int
	// JobDeadline is a virtual-time budget for the map phase, measured
	// from job start. When it expires with maps still unfinished, the
	// remaining tasks are degraded to drops under DegradeToDrop;
	// otherwise the job fails. 0 = no deadline.
	JobDeadline float64
}

// Job describes one MapReduce job. The zero values of optional fields
// select sensible defaults (see Validate).
type Job struct {
	Name   string
	Input  *dfs.File
	Format InputFormat

	// NewMapper builds one Mapper per map task attempt.
	//
	//approx:pure
	NewMapper func() Mapper
	// NewMapperFor, when set, overrides NewMapper with a per-task
	// factory. This is how user-defined approximation selects between
	// precise and approximate map variants per task.
	//
	//approx:pure
	NewMapperFor func(taskID int) Mapper
	// NewReduce builds the ReduceLogic for each reduce partition.
	NewReduce func(partition int) ReduceLogic
	// Reduces is the number of reduce tasks (default: one per server,
	// matching the paper's configuration).
	Reduces int

	// Combine enables map-side combining: intermediate pairs are
	// pre-aggregated per key into (count, sum, sumsq) before the
	// shuffle. Lossless for aggregation reducers; reducers that need
	// raw values (GEV, user reduce functions) must leave it off.
	Combine bool

	// Sketch, when non-nil, enables the sketch-emitting map-output
	// representation: EmitElement calls fold into one fixed-size
	// mergeable sketch per group (distinct count, top-k, or membership
	// per Kind), and the reduce side merges sketches instead of
	// iterating pairs. Pair with a sketch-aware ReduceLogic
	// (DistinctReduce, TopKReduce, MembershipReduce). Plain Emit calls
	// still travel as pairs. Nil keeps the pairs representation:
	// EmitElement then degrades to composite group+element pairs.
	Sketch *SketchPlan

	// Controller steers approximation; nil runs the job precisely.
	Controller Controller
	// Confidence for error bounds (default 0.95).
	Confidence float64

	// Cost converts metered task execution into virtual durations
	// (default cluster.MeasuredCost{}).
	Cost cluster.CostModel

	// Meter attributes compute seconds to in-process map and reduce
	// execution (default vtime.NewDeterministic(), which makes task
	// measurements — and therefore the whole simulation — reproducible).
	// vtime.NewWall() restores host wall-clock measurement for
	// calibration runs.
	Meter vtime.Meter

	// Seed drives task-order randomization and sampling.
	Seed int64

	// Workers bounds the map-compute worker pool: map attempts execute
	// their real user code on up to this many goroutines while the
	// discrete-event scheduler keeps making every decision
	// single-threaded in virtual-time order. Results are applied in
	// deterministic launch order, so a (job, seed) pair produces
	// bit-identical results for any pool size. 0 = GOMAXPROCS; 1 = run
	// attempts inline on the scheduler goroutine. Each attempt runs on
	// its own Meter.Fork child, so no meter is shared across workers.
	Workers int

	// Barrier disables incremental reduces: outputs buffer until all
	// maps finish (the stock-Hadoop ablation). Online error estimation
	// is unavailable, so target-error controllers cannot make progress
	// and user-specified-ratio jobs only get their bounds at the end.
	Barrier bool

	// SequentialOrder disables the random map-task order that
	// multi-stage sampling requires (ablation only: biased block order
	// invalidates the cluster-sampling assumptions).
	SequentialOrder bool

	// Speculation enables straggler duplicates: when no pending work
	// remains, running maps slower than SpecFactor times the median
	// completed duration are re-launched; the first attempt to finish
	// wins.
	Speculation bool
	SpecFactor  float64 // default 2.0

	// SleepIdle sends servers with no remaining map work to ACPI S3
	// for the rest of the job (the paper's Section 5.4 energy mode).
	SleepIdle bool

	// Retry bounds fault recovery (attempt caps, backoff, server
	// blacklisting, a map-phase deadline). The zero value retries
	// forever, immediately, like stock Hadoop.
	Retry RetryPolicy

	// DegradeToDrop turns unrecoverable map-task failures into
	// statistically-bounded drops: a task that exhausts its retry
	// budget, loses every block replica, or is cut off by the job
	// deadline is folded into the estimator's dropped-cluster count —
	// the same accounting as a deliberately dropped map — so the job
	// completes with Exact=false outputs and valid (wider) confidence
	// intervals instead of failing. Off, such failures abort the job
	// with a descriptive error (today's semantics). Meaningful for
	// multi-stage-sampling reducers; precise reducers still finish but
	// report unknown (NaN) error bounds, exactly as for deliberate
	// drops.
	DegradeToDrop bool

	// Faults, when non-nil, is injected into the engine at job start
	// (fault times relative to submission). Convenience for
	// single-job engines; multi-job timelines can call Engine.Inject
	// directly.
	Faults *cluster.FaultPlan

	// Trace, when set, receives scheduling events in virtual-time
	// order (launches, completions, kills, drops, speculation).
	Trace Tracer

	// RecordTrace additionally accumulates every scheduling event into
	// Result.Trace, so completed runs can be dumped (approxrun -trace)
	// or replay-diffed without wiring a live Tracer.
	RecordTrace bool

	// OnSnapshot, when set together with SnapshotEvery > 0, receives
	// the job's current cross-partition estimates every SnapshotEvery
	// virtual seconds while maps are still running — the "online
	// aggregation" early results of MapReduce Online (Condie et al.),
	// which ApproxHadoop's barrier-less reduces make possible.
	OnSnapshot    func(virtualTime float64, estimates []KeyEstimate)
	SnapshotEvery float64
}

// Validate applies defaults and checks required fields.
func (j *Job) Validate(eng *cluster.Engine) error {
	if j.Input == nil || len(j.Input.Blocks) == 0 {
		return errors.New("mapreduce: job has no input blocks")
	}
	if j.NewMapper == nil && j.NewMapperFor == nil {
		return errors.New("mapreduce: job has no mapper")
	}
	if j.NewReduce == nil {
		return errors.New("mapreduce: job has no reducer")
	}
	if j.Format == nil {
		j.Format = TextInputFormat{}
	}
	if j.Reduces <= 0 {
		j.Reduces = len(eng.Servers())
	}
	if rs := eng.TotalSlots(cluster.ReduceSlot); j.Reduces > rs {
		return fmt.Errorf("mapreduce: %d reduces exceed %d reduce slots", j.Reduces, rs)
	}
	if j.Confidence <= 0 || j.Confidence >= 1 {
		j.Confidence = 0.95
	}
	if j.Cost == nil {
		j.Cost = cluster.MeasuredCost{}
	}
	if j.Meter == nil {
		j.Meter = vtime.NewDeterministic()
	}
	if j.SpecFactor <= 1 {
		j.SpecFactor = 2.0
	}
	if j.Workers < 0 {
		j.Workers = 1
	}
	if j.Retry.MaxAttemptsPerTask < 0 {
		j.Retry.MaxAttemptsPerTask = 0
	}
	if j.Retry.Backoff < 0 || j.Retry.BlacklistAfter < 0 || j.Retry.JobDeadline < 0 {
		return errors.New("mapreduce: RetryPolicy fields must be non-negative")
	}
	if j.Name == "" {
		j.Name = "job"
	}
	if j.Sketch != nil {
		if err := j.Sketch.normalize(); err != nil {
			return err
		}
	}
	return nil
}

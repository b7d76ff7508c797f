// Package approxhadoop is a from-scratch Go implementation of
// ApproxHadoop (Goiri, Bianchini, Nagarakatte, Nguyen — ASPLOS 2015):
// a MapReduce framework extended with three approximation mechanisms —
// input data sampling, task dropping, and user-defined approximation —
// and with rigorous error bounds (95% confidence intervals) derived
// from multi-stage sampling theory (for sum/count/average reducers)
// and extreme value theory (for min/max reducers).
//
// The package is a facade over the building blocks:
//
//   - a block-oriented DFS (HDFS stand-in) with lazy, deterministic,
//     generator-backed blocks,
//   - a discrete-event cluster simulator (servers, map/reduce slots,
//     power model with ACPI S3) in which map tasks execute real Go
//     code while scheduling happens on a virtual clock,
//   - a Hadoop-style MapReduce runtime (JobTracker, locality-aware
//     scheduling, random task order, shuffle, barrier-less
//     incremental reduces, speculative execution),
//   - the ApproxHadoop layer: sampling input formats, approximation
//     controllers (static ratios, target error bounds with the paper's
//     optimization, GEV-based early termination), and the
//     multi-stage-sampling and extreme-value reducer templates.
//
// Quick start (the paper's ApproxWordCount, Figure 3):
//
//	sys := approxhadoop.NewSystem(approxhadoop.DefaultCluster())
//	input := approxhadoop.SplitText("pages.txt", data, 1<<16)
//	job := &approxhadoop.Job{
//		Name:   "ApproxWordCount",
//		Input:  input,
//		Format: approxhadoop.ApproxTextInput{},
//		NewMapper: func() approxhadoop.Mapper {
//			return approxhadoop.MapperFunc(func(rec approxhadoop.Record, emit approxhadoop.Emitter) {
//				for _, w := range strings.Fields(rec.Value) {
//					emit.Emit(w, 1)
//				}
//			})
//		},
//		NewReduce: approxhadoop.MultiStageSumReduce,
//		Combine:   true,
//	}
//	// ±1% with 95% confidence
//	res, err := sys.Submit(job, approxhadoop.Approximation{TargetError: 0.01})
//
// Every output key carries an Estimate with a confidence interval;
// Result.Runtime and Result.EnergyWh report the simulated cluster cost.
package approxhadoop

import (
	"io"

	"approxhadoop/internal/approx"
	"approxhadoop/internal/cluster"
	"approxhadoop/internal/dfs"
	"approxhadoop/internal/mapreduce"
	"approxhadoop/internal/stats"
	"approxhadoop/internal/stream"
	"approxhadoop/internal/workload"
)

// Core MapReduce types re-exported from the runtime.
type (
	// Job describes one MapReduce job (see mapreduce.Job).
	Job = mapreduce.Job
	// Result is a completed job's outputs, runtime and energy.
	Result = mapreduce.Result
	// Record is one input record: its Value (for text inputs, the line)
	// and the position it came from, Block and Index, which Key()
	// renders as Hadoop's "blockID:index" record key on demand. Value
	// is valid only during the Map call.
	Record = mapreduce.Record
	// Mapper is user map() code.
	Mapper = mapreduce.Mapper
	// MapperFunc adapts a function to Mapper.
	MapperFunc = mapreduce.MapperFunc
	// Emitter receives intermediate pairs.
	Emitter = mapreduce.Emitter
	// KeyEstimate is one output key with its interval estimate.
	KeyEstimate = mapreduce.KeyEstimate
	// ReduceLogic is the reduce-side computation of one partition.
	ReduceLogic = mapreduce.ReduceLogic
	// Controller steers approximation during a job.
	Controller = mapreduce.Controller
	// Estimate is a point estimate with confidence interval.
	Estimate = stats.Estimate

	// File is a DFS file (a sequence of blocks).
	File = dfs.File
	// Block is one DFS block.
	Block = dfs.Block

	// ClusterConfig configures the simulated cluster.
	ClusterConfig = cluster.Config
	// Fault is one injected failure on the virtual timeline.
	Fault = cluster.Fault
	// FaultPlan scripts a deterministic sequence of injected faults
	// (assign to Job.Faults).
	FaultPlan = cluster.FaultPlan
	// RetryPolicy bounds fault recovery: attempt caps, backoff, server
	// blacklisting and a map-phase deadline (assign to Job.Retry).
	RetryPolicy = mapreduce.RetryPolicy
	// CostModel converts task measurements to virtual durations.
	CostModel = cluster.CostModel
	// AnalyticCost is the t0 + M*tr + m*tp cost model of Equation 5.
	AnalyticCost = cluster.AnalyticCost
	// MeasuredCost charges tasks their real measured execution time.
	MeasuredCost = cluster.MeasuredCost

	// ApproxTextInput is the sampling text input format
	// (ApproxTextInputFormat in the paper).
	ApproxTextInput = approx.ApproxTextInput
	// TextInput is the precise text input format.
	TextInput = mapreduce.TextInputFormat

	// Event is one entry in a job's execution trace; set Job.RecordTrace
	// to collect them in Result.Trace, or assign a Tracer to Job.Trace
	// to observe them as they happen.
	Event = mapreduce.Event
	// EventKind classifies trace events.
	EventKind = mapreduce.EventKind
	// Tracer receives trace events in virtual-time order.
	Tracer = mapreduce.Tracer
)

// Trace event kinds (see Event).
const (
	EventMapLaunched       = mapreduce.EventMapLaunched
	EventMapCompleted      = mapreduce.EventMapCompleted
	EventMapKilled         = mapreduce.EventMapKilled
	EventMapDropped        = mapreduce.EventMapDropped
	EventMapSpeculated     = mapreduce.EventMapSpeculated
	EventMapFailed         = mapreduce.EventMapFailed
	EventMapRetried        = mapreduce.EventMapRetried
	EventMapDegraded       = mapreduce.EventMapDegraded
	EventServerBlacklisted = mapreduce.EventServerBlacklisted
	EventReduceFinished    = mapreduce.EventReduceFinished
	EventJobCompleted      = mapreduce.EventJobCompleted
)

// DefaultCluster mirrors the paper's Xeon cluster: 10 servers with 8
// map slots and 1 reduce slot each, 60 W idle / 150 W peak.
func DefaultCluster() ClusterConfig { return cluster.DefaultConfig() }

// PaperCost returns the analytic task cost model calibrated to produce
// paper-scale simulated runtimes for the default synthetic workloads
// (the alternative, MeasuredCost, charges tasks their real measured
// compute time on the host).
func PaperCost() AnalyticCost { return cluster.PaperCost() }

// AtomCluster mirrors the paper's 60-node Atom cluster used for the
// large scaling experiments.
func AtomCluster() ClusterConfig { return cluster.AtomConfig() }

// Fault kinds for FaultPlan entries.
const (
	// FaultTask kills one running map attempt on the target server.
	FaultTask = cluster.FaultTask
	// FaultServer fail-stops the target server (Recover > 0 rejoins it).
	FaultServer = cluster.FaultServer
	// FaultSlow changes the target server's speed factor.
	FaultSlow = cluster.FaultSlow
	// FaultGroup fail-stops a set of servers at once (rack failure).
	FaultGroup = cluster.FaultGroup
)

// RandomFaultPlan builds a seeded random mix of task faults,
// fail-stops (some with recovery), slowdowns and correlated group
// failures over the first horizon seconds; servers listed in protect
// never fail-stop (their faults weaken to transient task faults).
func RandomFaultPlan(seed int64, n, servers int, horizon float64, protect ...int) FaultPlan {
	return cluster.RandomFaultPlan(seed, n, servers, horizon, protect...)
}

// SplitText splits text content into line-aligned blocks (like HDFS
// text splits) and returns the file.
func SplitText(name string, content []byte, blockSize int) *File {
	return dfs.SplitText(name, content, blockSize)
}

// ---------------------------------------------------------------------------
// Reducer templates
// ---------------------------------------------------------------------------

// MultiStageSumReduce builds the paper's MultiStageSamplingReducer for
// sums per key (error bounds from two-stage sampling theory). Pass it
// as Job.NewReduce.
func MultiStageSumReduce(int) ReduceLogic { return approx.NewMultiStageReducer(approx.OpSum) }

// MultiStageCountReduce is MultiStageSumReduce for 0/1 indicators.
func MultiStageCountReduce(int) ReduceLogic { return approx.NewMultiStageReducer(approx.OpCount) }

// MultiStageMeanReduce estimates per-unit means with ratio-estimator
// error bounds.
func MultiStageMeanReduce(int) ReduceLogic { return approx.NewMultiStageReducer(approx.OpMean) }

// ApproxMinReduce builds the GEV-based minimum reducer (ApproxMinReducer).
func ApproxMinReduce(int) ReduceLogic { return approx.NewMinReducer() }

// ApproxMaxReduce builds the GEV-based maximum reducer (ApproxMaxReducer).
func ApproxMaxReduce(int) ReduceLogic { return approx.NewMaxReducer() }

// SumReduce is the plain (precise Hadoop) sum reducer.
func SumReduce(int) ReduceLogic { return mapreduce.SumReduce() }

// ---------------------------------------------------------------------------
// Sketch plane
// ---------------------------------------------------------------------------

// SketchPlan selects and parameterizes a sketch-compressed map-output
// representation (assign to Job.Sketch). Map output then carries one
// fixed-size mergeable sketch per (partition, group) instead of one
// pair per element — O(1) shuffle volume per partition — and the
// matching sketch reducer merges them with sketch-specific error
// bounds. The zero value of every parameter picks a sensible default.
type SketchPlan = mapreduce.SketchPlan

// Sketch kinds for SketchPlan.Kind.
const (
	// SketchDistinct counts distinct elements per group (HyperLogLog).
	SketchDistinct = mapreduce.SketchDistinct
	// SketchTopK tracks heavy hitters (Count-Min + candidate set).
	SketchTopK = mapreduce.SketchTopK
	// SketchMembership answers set-membership queries (Bloom filter).
	SketchMembership = mapreduce.SketchMembership
)

// ElementSep joins group and element in the composite-pair fallback
// representation emitted by EmitElement without a sketch plan.
const ElementSep = mapreduce.ElementSep

// EmitElement emits one element observation for sketch-family jobs:
// under a SketchPlan it folds into the group's sketch, otherwise it
// emits the composite pair "group\x1felement" partitioned by group so
// both representations reduce identically.
func EmitElement(emit Emitter, group, element string, weight float64) {
	mapreduce.EmitElement(emit, group, element, weight)
}

// DistinctReduce estimates distinct elements per group. Pair it with
// SketchDistinct (or run it on composite pairs for exact counts).
func DistinctReduce(int) ReduceLogic { return mapreduce.NewDistinctReduce() }

// TopKReduce reports the k heaviest elements with rank-preserving
// count estimates. Pair it with SketchTopK.
func TopKReduce(k int) func(int) ReduceLogic {
	return func(int) ReduceLogic { return mapreduce.NewTopKReduce(k) }
}

// MembershipReduce builds per-group membership filters and reports
// estimated member counts. Pair it with SketchMembership.
func MembershipReduce(int) ReduceLogic { return mapreduce.NewMembershipReduce() }

// TotalShuffleBytes reports the cumulative map-output shuffle volume
// (bytes) of every job run in this process — diff it around a run to
// compare representations.
func TotalShuffleBytes() int64 { return mapreduce.TotalShuffleBytes() }

// ---------------------------------------------------------------------------
// User-defined approximation
// ---------------------------------------------------------------------------

// PerTaskMappers selects between precise and approximate map variants
// per task (user-defined approximation); assign to Job.NewMapperFor.
func PerTaskMappers(approxRatio float64, seed int64, precise, approximate func() Mapper) func(int) Mapper {
	return approx.PerTaskMappers(approxRatio, seed, precise, approximate)
}

// ---------------------------------------------------------------------------
// Output writers (the paper's ApproxOutput)
// ---------------------------------------------------------------------------

// WriteText renders a result as a human-readable report.
func WriteText(w io.Writer, res *Result) error { return mapreduce.WriteText(w, res) }

// WriteTSV writes "key value epsilon confidence" lines.
func WriteTSV(w io.Writer, res *Result) error { return mapreduce.WriteTSV(w, res) }

// WriteJSON serializes a result with interval bounds per key.
func WriteJSON(w io.Writer, res *Result) error { return mapreduce.WriteJSON(w, res) }

// WriteTraceJSONL writes a recorded execution trace (Result.Trace) as
// one JSON event per line.
func WriteTraceJSONL(w io.Writer, events []Event) error {
	return mapreduce.WriteTraceJSONL(w, events)
}

// Streaming approximation plane (internal/stream): continuous windowed
// queries over live, virtual-clock paced log streams, with per-window
// multi-stage estimates and an adaptive sampling controller. A
// StreamPipeline runs on the goroutine that calls Run — it has no
// worker pool to size — and emits the same series bytes for the same
// (query, seed, source) on every run; run several pipelines on several
// goroutines for parallelism.
type (
	// StreamQuery is a continuous windowed aggregation.
	StreamQuery = stream.Query
	// StreamWindow is an event-time window spec (Size/Slide seconds).
	StreamWindow = stream.Window
	// StreamSLO is the per-window error/latency objective; a query whose
	// SLO sets either runs under the adaptive controller.
	StreamSLO = stream.SLO
	// StreamPlan is one window's sampling plan.
	StreamPlan = stream.PlanSpec
	// StreamPipeline runs one StreamQuery over one StreamSource: one
	// goroutine routes each record, the caller's folds it.
	StreamPipeline = stream.Pipeline
	// StreamSource is an event-time record stream. A pipeline drives
	// its Run from a goroutine of the pipeline's own, calling fn one
	// record at a time; the source may run ahead of the window callback
	// by at most one ring of records.
	StreamSource = stream.Source
	// WindowResult is one closed window of the output series.
	WindowResult = stream.WindowResult
	// RateFunc is a stream intensity curve (records per second at t).
	RateFunc = workload.RateFunc
	// StreamOptions configure replaying a file as a live stream.
	StreamOptions = workload.StreamOptions
	// LogStream replays a dfs file as a paced record stream.
	LogStream = workload.LogStream
)

// Streaming aggregate ops.
const (
	StreamCount = stream.OpCount
	StreamSum   = stream.OpSum
	StreamMean  = stream.OpMean
)

// StreamFromFile wraps a dfs file (SplitText or a workload generator's
// File) as a live, Poisson-paced stream.
func StreamFromFile(f *File, opt StreamOptions) *LogStream { return workload.StreamFrom(f, opt) }

// ConstantRate emits perSec records per virtual second.
func ConstantRate(perSec float64) RateFunc { return workload.ConstantRate(perSec) }

// DiurnalRate is a day-shaped sinusoid base*(1+swing*sin(2πt/period)).
func DiurnalRate(base, swing, period float64) RateFunc {
	return workload.DiurnalRate(base, swing, period)
}

// StreamSeriesBytes renders a window series in its canonical byte
// form (the determinism contract's unit of account).
func StreamSeriesBytes(series []WindowResult) []byte { return stream.SeriesBytes(series) }

// WriteWindowSeries writes a header plus one TSV row per window.
func WriteWindowSeries(w io.Writer, series []WindowResult) error {
	return stream.WriteSeries(w, series)
}

// Package stream is the streaming approximation plane: it runs the
// multi-stage sampling estimators of the batch engine over event-time
// windows of an unbounded record stream.
//
// The design transplants the paper's two-stage cluster theory onto
// substreams (Quoc et al., "Approximate Stream Analytics"): within one
// window, each stratum (a substream — one wiki project, one client
// bucket, ...) plays the role the paper gives to an input block. A
// deterministic seeded reservoir per (window, stratum) is the
// second-stage unit sample; a stratum the controller sheds entirely is
// a dropped cluster and widens the interval through the between-
// cluster variance term, exactly like a dropped map task in the batch
// plane. At window close the strata fold into a stats.ClusterSums, as a
// key's clusters do in the batch reducer, and the window's estimate
// ships with a t-based confidence interval.
//
// Execution is two stages on two goroutines per stream. Stage 1, a
// goroutine of the run's own, drives the source and routes each record
// to its stratum; stage 2, the goroutine driving Run, folds the routed
// records into their windows' reservoirs in arrival order and closes
// windows as the watermark passes them. Routing reads no run state, so
// the folds see the order one goroutine doing both would. Every
// reservoir and shedding coin is seeded from (query seed, window,
// stratum) and a window's plan is snapshotted when it opens, so the
// same (query, seed, rate trace) yields a byte-identical window series
// on every run. Independent streams run side by side one level up
// (jobserver.StreamSet); the second stage shortens a window only while
// a core is spare.
//
// Feedback closes the loop per window (EARL's expansion loop, turned
// streaming): the realized error and modeled latency of window w
// retune window w+1's plan — reservoir capacity first, stratum
// shedding only under latency pressure — so an error/latency SLO
// holds while the input rate swings.
package stream

import (
	"errors"
	"fmt"

	"approxhadoop/internal/stats"
)

// Op selects the per-window aggregate.
type Op int

const (
	// OpCount estimates the number of records in the window.
	OpCount Op = iota
	// OpSum estimates the sum of Value over the window's records.
	OpSum
	// OpMean estimates the per-record mean of Value over the window.
	OpMean
)

// String names the op for output rows.
func (o Op) String() string {
	switch o {
	case OpCount:
		return "count"
	case OpSum:
		return "sum"
	case OpMean:
		return "mean"
	}
	return "op?"
}

// Window is an event-time window specification, in virtual seconds.
// Slide == Size (or 0) is tumbling; Slide < Size is sliding, with each
// record folded into every window that contains it. Window k covers
// [k*Slide, k*Slide+Size) and closes when the stream time reaches its
// end; windows are emitted in index order with no gaps.
type Window struct {
	Size  float64
	Slide float64
}

// SLO is the per-window service-level objective the adaptive
// controller steers toward. A pipeline runs its query under the
// controller when TargetRelErr or MaxLatency is set; the zero value
// runs the fixed plan.
type SLO struct {
	// TargetRelErr is the target relative CI half-width at Confidence
	// (0.05 = ±5%). 0 disables error-driven capacity tuning.
	TargetRelErr float64
	// MaxLatency bounds the modeled per-window processing time
	// (virtual seconds, under the plane's analytic latency model). 0
	// disables latency-driven shedding.
	MaxLatency float64
	// Confidence is the CI level (default 0.95).
	Confidence float64
}

// Query is a continuous windowed aggregation. Buckets, Seed and
// Capacity are part of the query's identity: changing any of them
// changes the emitted series.
type Query struct {
	Name string
	Op   Op

	// Stratify extracts the stratum (substream) label from a record.
	// Returning nil drops the record as unparseable. The returned
	// slice is read before the next record; subslices of line are fine.
	// Runs on the goroutine that drives the Source, once per record,
	// concurrently with Value, and must stay pure: it is part of the
	// query's deterministic identity.
	//
	//approx:pure
	Stratify func(line []byte) []byte

	// Value extracts the aggregated value from a record (unused by
	// OpCount). ok=false folds the record as an implicit zero, the
	// estimator's single assumption about malformed values. Runs on
	// the goroutine that called Run, on a copy of the line Stratify
	// saw, and only for records a reservoir admits; pure like Stratify.
	//
	//approx:pure
	Value func(line []byte) (float64, bool)

	Window Window
	SLO    SLO

	// Buckets > 0 hashes strata into this many fixed buckets —
	// StreamApprox's bounded substream set for high-cardinality keys
	// (e.g. clients) — and sizes a table of that many entries per open
	// window. 0 keeps natural strata.
	Buckets int

	// Capacity is the initial per-(window, stratum) reservoir size
	// (default 64). The controller retunes it per window.
	Capacity int

	// Seed drives every reservoir and shedding decision (default 1).
	Seed int64
}

// normalized returns the query with defaults applied, or an error for
// unusable specs.
func (q Query) normalized() (Query, error) {
	if q.Window.Size <= 0 {
		return q, errors.New("stream: query needs Window.Size > 0")
	}
	if q.Window.Slide <= 0 {
		q.Window.Slide = q.Window.Size
	}
	if q.Window.Slide > q.Window.Size {
		return q, fmt.Errorf("stream: Slide %g > Size %g leaves gaps", q.Window.Slide, q.Window.Size)
	}
	if q.Stratify == nil {
		return q, errors.New("stream: query needs Stratify")
	}
	if q.Op != OpCount && q.Value == nil {
		return q, fmt.Errorf("stream: op %v needs Value", q.Op)
	}
	if q.Capacity <= 0 {
		q.Capacity = 64
	}
	if q.Seed == 0 {
		q.Seed = 1
	}
	if q.SLO.Confidence <= 0 || q.SLO.Confidence >= 1 {
		q.SLO.Confidence = 0.95
	}
	return q, nil
}

// Source is an event-time record stream; workload.LogStream satisfies
// it. Run must drive fn in nondecreasing time order, one call at a
// time, and propagate fn's error verbatim (the pipeline stops the
// source through it). A pipeline calls Run on a goroutine of its own
// and copies what it keeps of each line, so the source may run ahead
// of the window callback by at most one ring of records, and Run has
// returned by the time the pipeline's does.
type Source interface {
	Run(fn func(t float64, line []byte) error) error
}

// PlanSpec is one window's sampling plan, fixed at window open.
type PlanSpec struct {
	// Capacity is the per-stratum reservoir size.
	Capacity int
	// KeepFrac is the fraction of strata processed; the rest are shed
	// by a seeded per-(window, stratum) coin and surface as dropped
	// clusters in the estimate.
	KeepFrac float64
}

// WindowResult is one closed window of the output series.
type WindowResult struct {
	Index      int64   // window index k (start = k*Slide)
	Start, End float64 // event-time bounds [Start, End)

	Records   int64 // records routed into the window (all strata)
	Strata    int   // strata observed (population N for the estimator)
	Processed int   // strata sampled (not shed)
	Folded    int64 // records of processed strata (offered to reservoirs)
	Sampled   int64 // units held in the sample at close (== Folded when fully enumerated; OpCount observes every folded unit)

	Plan     PlanSpec // the plan this window ran under
	Degraded bool     // plan shed strata (KeepFrac < 1)
	Partial  bool     // closed by stream end, not by the watermark
	// Last marks the window the pipeline emits last: the highest one a
	// drained source left open, or the one that spends MaxWindows. It
	// is about the run, not the window, and no SeriesBytes column.
	Last bool

	// Latency is the modeled processing time of the window (seconds)
	// under the plane's analytic latency model; a pure function of the
	// counts above, never of the wall clock.
	Latency float64

	Est   stats.Estimate // windowed multi-stage estimate with CI
	Exact bool           // every stratum fully enumerated, Err == 0
}

// Ratio is the realized sampling fraction Sampled/Folded (1 when the
// window folded nothing).
func (r WindowResult) Ratio() float64 {
	if r.Folded == 0 {
		return 1
	}
	return float64(r.Sampled) / float64(r.Folded)
}

// Package apps implements every application from the paper's Table 1
// on top of the ApproxHadoop stack, plus the applications of the
// technical report's user-defined-approximation study (K-Means and
// video encoding):
//
//	Data analysis  (Wikipedia dump):  WikiLength, WikiPageRank
//	Log processing (Wikipedia log):   ProjectPopularity, PagePopularity,
//	                                  RequestRate, PageTraffic
//	Log processing (web-server log):  TotalSize, RequestSize, Clients,
//	                                  ClientBrowser, AttackFrequencies,
//	                                  WebRequestRate
//	Optimization:                     DCPlacement (simulated annealing,
//	                                  GEV error bounds)
//	User-defined approximation:       KMeans, VideoEncoding
//
// Every builder returns a ready-to-run mapreduce.Job; passing a nil
// Controller yields the precise execution (bounds of width zero),
// while Static/TargetError controllers yield the paper's approximate
// executions. Catalog names every builder, batch and stream, with its
// Table 1 row and the dataset it runs over.
package apps

import (
	"approxhadoop/internal/approx"
	"approxhadoop/internal/cluster"
	"approxhadoop/internal/dfs"
	"approxhadoop/internal/mapreduce"
)

// Options configures how an application job is assembled.
type Options struct {
	// Controller steers approximation; nil = precise execution.
	Controller mapreduce.Controller
	// Plain uses the stock Hadoop classes (TextInputFormat and a plain
	// sum reducer) instead of the ApproxHadoop templates, for
	// measuring the framework's overhead (Section 5.2).
	Plain bool
	// Cost is the task cost model (default cluster.MeasuredCost{}).
	Cost cluster.CostModel
	// Seed for task ordering and sampling.
	Seed int64
	// Reduces overrides the reduce task count (default: one per server).
	Reduces int
	// SleepIdle enables the S3 energy policy.
	SleepIdle bool
	// Barrier disables incremental reduces (ablation).
	Barrier bool
	// Speculation enables straggler duplicates.
	Speculation bool
}

// job assembles the fields of an application job that opts decides.
func (o Options) job(name string, input *dfs.File) *mapreduce.Job {
	return &mapreduce.Job{Name: name, Input: input, Reduces: o.Reduces, Controller: o.Controller,
		Cost: o.Cost, Seed: o.Seed, SleepIdle: o.SleepIdle, Barrier: o.Barrier, Speculation: o.Speculation}
}

// aggregationJob assembles the common shape of the Table 1 analytics
// jobs: ApproxTextInput + combiner + MultiStageReducer (or the plain
// Hadoop classes when opts.Plain).
func aggregationJob(name string, input *dfs.File, mapper func() mapreduce.Mapper, op approx.AggOp, opts Options) *mapreduce.Job {
	job := opts.job(name, input)
	job.NewMapper = mapper
	if opts.Plain {
		job.Format = mapreduce.TextInputFormat{}
		switch op {
		case approx.OpMean:
			job.NewReduce = func(int) mapreduce.ReduceLogic { return mapreduce.MeanReduce() }
		default:
			job.NewReduce = func(int) mapreduce.ReduceLogic { return mapreduce.SumReduce() }
		}
		return job
	}
	job.Format = approx.ApproxTextInput{}
	job.Combine = true
	job.NewReduce = func(int) mapreduce.ReduceLogic { return approx.NewMultiStageReducer(op) }
	return job
}

// Spec is one application's row of the paper's Table 1 (see Catalog).
type Spec struct {
	Name        string
	Domain      string // data analysis, log processing, optimization, ...
	Input       string // which dataset it runs on
	Sampling    bool   // supports input data sampling (S)
	Dropping    bool   // supports task dropping (D)
	UserDefined bool   // supports user-defined approximation (U)
	ErrEst      string // MS (multi-stage sampling), GEV, U (user-defined)
}

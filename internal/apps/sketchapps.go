package apps

import (
	"approxhadoop/internal/approx"
	"approxhadoop/internal/dfs"
	"approxhadoop/internal/mapreduce"
	"approxhadoop/internal/workload"
)

// This file adds the two sketch-plane wiki scenarios: distinct editors
// per project (HLL over the edit log) and top-k hot pages (Count-Min
// over the access log). Both mappers emit through
// mapreduce.EmitElement, so the SAME job definition runs in either
// representation: with opts.Sketch the map output is one fixed-size
// sketch per group, without it the elements travel as composite pairs
// (with map-side combining) and the reducers compute exactly — the
// baseline the shuffle-volume comparison and the accuracy cross-checks
// run against.

// SketchOptions extends Options with the representation toggle.
type SketchOptions struct {
	Options
	// Sketch selects the sketch-compressed map-output representation;
	// false runs the composite-pairs baseline.
	Sketch bool
	// Plan overrides the default sketch parameters (optional; the Kind
	// is always set by the scenario).
	Plan *mapreduce.SketchPlan
}

// sketchElementJob assembles the common shape of the sketch scenarios.
func sketchElementJob(name string, input *dfs.File, mapper func() mapreduce.Mapper,
	kind mapreduce.SketchKind, reduce func() mapreduce.ReduceLogic, opts SketchOptions) *mapreduce.Job {
	job := opts.job(name, input)
	job.Format = approx.ApproxTextInput{}
	job.NewMapper = mapper
	job.NewReduce = func(int) mapreduce.ReduceLogic { return reduce() }
	if opts.Sketch {
		plan := opts.Plan
		if plan == nil {
			plan = &mapreduce.SketchPlan{}
		}
		plan.Kind = kind
		job.Sketch = plan
	} else {
		job.Combine = true
	}
	return job
}

// WikiDistinctEditors counts the distinct editors of each project over
// the edit log: a per-group HLL under the sketch representation, exact
// sets under pairs.
func WikiDistinctEditors(input *dfs.File, opts SketchOptions) *mapreduce.Job {
	mapper := func() mapreduce.Mapper {
		return mapreduce.MapperFunc(func(rec mapreduce.Record, emit mapreduce.Emitter) {
			e, ok := workload.ParseEdit(rec.Value)
			if !ok {
				return
			}
			mapreduce.EmitElement(emit, e.Project, e.Editor, 1)
		})
	}
	return sketchElementJob("WikiDistinctEditors", input, mapper, mapreduce.SketchDistinct,
		func() mapreduce.ReduceLogic { return mapreduce.NewDistinctReduce() }, opts)
}

// topPagesK is the k of the hot-pages query (the paper-style "top
// pages" report).
const topPagesK = 10

// WikiTopPages reports the k most-requested pages across the whole
// access log (a single global group): a Count-Min + candidate-set
// sketch under the sketch representation, exact tallies under pairs.
func WikiTopPages(input *dfs.File, opts SketchOptions) *mapreduce.Job {
	mapper := func() mapreduce.Mapper {
		return mapreduce.MapperFunc(func(rec mapreduce.Record, emit mapreduce.Emitter) {
			var a workload.Access
			if !a.Parse(rec.Value) {
				return
			}
			mapreduce.EmitElement(emit, "", a.Page, 1)
		})
	}
	k := topPagesK
	if opts.Plan != nil && opts.Plan.K > 0 {
		k = opts.Plan.K
	}
	return sketchElementJob("WikiTopPages", input, mapper, mapreduce.SketchTopK,
		func() mapreduce.ReduceLogic { return mapreduce.NewTopKReduce(k) }, opts)
}

// WikiEditorMembership records which editors touched each project, for
// point membership queries: a per-group Bloom filter under the sketch
// representation, exact sets under pairs. The job's output value per
// project is the estimated member count.
func WikiEditorMembership(input *dfs.File, opts SketchOptions) *mapreduce.Job {
	mapper := func() mapreduce.Mapper {
		return mapreduce.MapperFunc(func(rec mapreduce.Record, emit mapreduce.Emitter) {
			e, ok := workload.ParseEdit(rec.Value)
			if !ok {
				return
			}
			mapreduce.EmitElement(emit, e.Project, e.Editor, 1)
		})
	}
	return sketchElementJob("WikiEditorMembership", input, mapper, mapreduce.SketchMembership,
		func() mapreduce.ReduceLogic { return mapreduce.NewMembershipReduce() }, opts)
}

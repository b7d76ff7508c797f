package apps

import (
	"fmt"

	"approxhadoop/internal/approx"
	"approxhadoop/internal/dfs"
	"approxhadoop/internal/mapreduce"
	"approxhadoop/internal/workload"
)

// WikiLength produces a histogram of Wikipedia article lengths: the
// map emits <sizeBin, 1> per article, the reduce sums per bin
// (Section 5.2). Input is a workload.WikiDump file.
func WikiLength(input *dfs.File, opts Options) *mapreduce.Job {
	mapper := func() mapreduce.Mapper {
		return mapreduce.MapperFunc(func(rec mapreduce.Record, emit mapreduce.Emitter) {
			if size, ok := workload.ParseArticleSize(rec.Value); ok {
				emit.Emit(workload.SizeBin(size), 1)
			}
		})
	}
	return aggregationJob("WikiLength", input, mapper, approx.OpSum, opts)
}

// WikiPageRank counts the number of articles that link to each
// article, the main processing component of PageRank: the map emits
// <target, 1> per link, the reduce sums per target.
func WikiPageRank(input *dfs.File, opts Options) *mapreduce.Job {
	mapper := func() mapreduce.Mapper {
		return mapreduce.MapperFunc(func(rec mapreduce.Record, emit mapreduce.Emitter) {
			if a, ok := workload.ParseArticle(rec.Value); ok {
				for _, target := range a.Links {
					emit.Emit(target, 1)
				}
			}
		})
	}
	return aggregationJob("WikiPageRank", input, mapper, approx.OpSum, opts)
}

// ProjectPopularity counts accesses per project from the Wikipedia
// access log (the paper's headline application).
func ProjectPopularity(input *dfs.File, opts Options) *mapreduce.Job {
	mapper := func() mapreduce.Mapper {
		return mapreduce.MapperFunc(func(rec mapreduce.Record, emit mapreduce.Emitter) {
			var a workload.Access
			if a.Parse(rec.Value) {
				emit.Emit(a.Project, 1)
			}
		})
	}
	return aggregationJob("ProjectPopularity", input, mapper, approx.OpSum, opts)
}

// PagePopularity counts accesses per page from the Wikipedia access
// log — the high-key-cardinality application that memory-swaps when
// run precisely in the paper's cluster, motivating the pilot wave.
func PagePopularity(input *dfs.File, opts Options) *mapreduce.Job {
	mapper := func() mapreduce.Mapper {
		return mapreduce.MapperFunc(func(rec mapreduce.Record, emit mapreduce.Emitter) {
			var a workload.Access
			if a.Parse(rec.Value) {
				emit.Emit(a.Page, 1)
			}
		})
	}
	return aggregationJob("PagePopularity", input, mapper, approx.OpSum, opts)
}

// PageTraffic sums bytes served per page from the Wikipedia access
// log.
func PageTraffic(input *dfs.File, opts Options) *mapreduce.Job {
	mapper := func() mapreduce.Mapper {
		return mapreduce.MapperFunc(func(rec mapreduce.Record, emit mapreduce.Emitter) {
			var a workload.Access
			if a.Parse(rec.Value) {
				emit.Emit(a.Page, float64(a.Bytes))
			}
		})
	}
	return aggregationJob("PageTraffic", input, mapper, approx.OpSum, opts)
}

// WikiRequestRate counts accesses per hour of day from the Wikipedia
// access log.
func WikiRequestRate(input *dfs.File, opts Options) *mapreduce.Job {
	mapper := func() mapreduce.Mapper {
		return mapreduce.MapperFunc(func(rec mapreduce.Record, emit mapreduce.Emitter) {
			var a workload.Access
			if a.Parse(rec.Value) {
				hour := (a.Epoch / 3600) % 24
				emit.Emit(fmt.Sprintf("hour%02d", hour), 1)
			}
		})
	}
	return aggregationJob("RequestRate(wiki)", input, mapper, approx.OpSum, opts)
}

package apps

import (
	"approxhadoop/internal/approx"
	"approxhadoop/internal/dfs"
	"approxhadoop/internal/mapreduce"
	"approxhadoop/internal/workload"
)

// AvgBytesPerLink estimates the mean article bytes attributable to
// each outgoing link — a per-PAIR average: every article (input unit)
// produces one intermediate pair per link, so the mean must be taken
// over the produced pairs rather than over articles (Section 3.1's
// three-stage sampling example: the programmer knows her application
// and opts into the third stage explicitly via the ThreeStageReducer).
func AvgBytesPerLink(input *dfs.File, opts Options) *mapreduce.Job {
	mapper := func() mapreduce.Mapper {
		return mapreduce.MapperFunc(func(rec mapreduce.Record, emit mapreduce.Emitter) {
			a, ok := workload.ParseArticle(rec.Value)
			if !ok || len(a.Links) == 0 {
				return
			}
			share := float64(a.Size) / float64(len(a.Links))
			for range a.Links {
				emit.Emit("bytes-per-link", share)
			}
		})
	}
	job := opts.job("AvgBytesPerLink", input)
	job.Format = approx.ApproxTextInput{}
	job.NewMapper = mapper
	job.NewReduce = func(int) mapreduce.ReduceLogic { return approx.NewThreeStageReducer() }
	job.Reduces = 1
	job.Combine = true
	return job
}

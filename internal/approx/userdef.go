package approx

import (
	"approxhadoop/internal/mapreduce"
	"approxhadoop/internal/stats"
)

// PerTaskMappers implements the paper's third mechanism, user-defined
// approximation: the user supplies a precise and an approximate
// version of the map code and a fraction of tasks to run approximately
// ([19], Section 3). The returned factory plugs into
// mapreduce.Job.NewMapperFor; the choice is deterministic per (seed,
// taskID) so re-executions (speculation) pick the same variant.
//
// ApproxHadoop cannot bound the error of user-defined approximations;
// pair this with a user-supplied ReduceLogic that implements whatever
// quality metric the application defines.
func PerTaskMappers(approxRatio float64, seed int64, precise, approximate func() mapreduce.Mapper) func(taskID int) mapreduce.Mapper {
	if approxRatio < 0 {
		approxRatio = 0
	}
	if approxRatio > 1 {
		approxRatio = 1
	}
	return func(taskID int) mapreduce.Mapper {
		r := stats.NewRand(seed ^ (int64(taskID)+1)*1315423911)
		if r.Float64() < approxRatio {
			return approximate()
		}
		return precise()
	}
}

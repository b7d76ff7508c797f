package approx

import (
	"cmp"
	"slices"

	"approxhadoop/internal/mapreduce"
	"approxhadoop/internal/stats"
)

// ThreeStageReducer estimates per-PAIR means: the population units are
// the intermediate <key, value> pairs the Map phase produces, not the
// input data items (Section 3.1, "Three-stage sampling" — e.g. the
// average number of occurrences of a word per paragraph when each
// input item is a whole page). The programmer opts in explicitly by
// choosing this reducer; the map task's pair production per sampled
// unit becomes the third sampling stage's size variable.
//
// Unlike MultiStageReducer this keeps per-(key, cluster) state, so it
// is intended for low-cardinality keys (aggregate metrics), which is
// also the paper's use case.
type ThreeStageReducer struct {
	tally    mapreduce.Tally
	clusters []clusterMeta
	keys     map[string][]tsEntry
}

type clusterMeta struct {
	task    int   // TaskID, the order clusters enter the estimator in
	items   int64 // M_i
	sampled int64 // m_i
}

type tsEntry struct {
	cluster int32
	pairs   int64 // intermediate pairs observed for the key in this cluster
	stat    stats.RunningStat
}

// NewThreeStageReducer builds a per-pair mean reducer.
func NewThreeStageReducer() *ThreeStageReducer {
	return &ThreeStageReducer{keys: make(map[string][]tsEntry)}
}

// Consume implements mapreduce.ReduceLogic. Combined outputs are
// accepted: the per-key running stat carries the pair count and sums.
func (r *ThreeStageReducer) Consume(out *mapreduce.MapOutput) {
	r.tally.Add(out)
	ci := int32(len(r.clusters))
	r.clusters = append(r.clusters, clusterMeta{task: out.TaskID, items: out.Items, sampled: out.Sampled})
	out.EachStat(func(key string, rs stats.RunningStat) {
		r.keys[key] = append(r.keys[key], tsEntry{cluster: ci, pairs: rs.Count, stat: rs})
	})
}

// Estimates implements mapreduce.ReduceLogic.
func (r *ThreeStageReducer) Estimates(view mapreduce.EstimateView) []mapreduce.KeyEstimate {
	return r.Finalize(view)
}

// Finalize implements mapreduce.ReduceLogic.
func (r *ThreeStageReducer) Finalize(view mapreduce.EstimateView) []mapreduce.KeyEstimate {
	exact := r.tally.Exact(view)
	// Clusters enter the estimator in TaskID order, not arrival order,
	// so every consume order folds the same sums in the same order.
	order := make([]int32, len(r.clusters))
	for i := range order {
		order[i] = int32(i)
	}
	slices.SortFunc(order, func(a, b int32) int { return cmp.Compare(r.clusters[a].task, r.clusters[b].task) })
	rank := make([]int32, len(order))
	for i, c := range order {
		rank[c] = int32(i)
	}
	out := make([]mapreduce.KeyEstimate, 0, len(r.keys))
	for key, entries := range r.keys {
		tsc := make([]stats.ThreeStageCluster, len(r.clusters))
		for i, c := range order {
			tsc[i] = stats.ThreeStageCluster{M: r.clusters[c].items, Sam: r.clusters[c].sampled}
		}
		for _, e := range entries {
			tsc[rank[e.cluster]].G = e.pairs
			tsc[rank[e.cluster]].Stat = e.stat
		}
		est := stats.ThreeStageMean(int64(view.TotalMaps), tsc, view.Confidence)
		if exact {
			est.Err = 0
			est.StdErr = 0
		}
		out = append(out, mapreduce.KeyEstimate{Key: key, Est: est, Exact: exact})
	}
	mapreduce.SortByKey(out)
	return out
}

// Per-window estimation: a closed window's strata become a two-stage
// cluster sample and the batch plane's estimator does the rest.
//
// The mapping (Section 3 of the paper, reinterpreted per StreamApprox):
// the window's strata are the first-stage clusters — all of them are
// "known" (N counts shed strata too, since the router observed every
// record), the processed ones are the n sampled clusters. Within a
// processed stratum the reservoir is the second-stage unit sample:
// M_h records were offered, m_h = |reservoir| made it in, uniformly
// without replacement. Shedding therefore widens the interval through
// the between-cluster term and a tight reservoir through the
// within-cluster term, and both shrink to zero when everything is
// kept — the estimate degrades to exact, Err 0.
package stream

import "approxhadoop/internal/stats"

// estimateWindow builds the window's TwoStage sample from its sorted
// strata and returns the op's estimate plus whether it is exact
// (nothing shed, every stratum fully enumerated).
func estimateWindow(op Op, strata []*stratumState, conf float64) (stats.Estimate, bool) {
	ts := stats.TwoStage{N: int64(len(strata)), Clusters: make([]stats.ClusterSample, 0, len(strata))}
	exact := true
	for _, s := range strata {
		if s.shed {
			exact = false
			continue
		}
		cs := stats.ClusterSample{M: s.count}
		if op == OpCount {
			// Counting observes every unit: the per-unit value is the
			// constant 1, fully enumerated.
			cs.Sam = s.count
			cs.Stat = stats.RunningStat{Count: s.count, Sum: float64(s.count), SumSq: float64(s.count)}
		} else {
			cs.Sam = int64(len(s.res.vals))
			cs.Stat = s.res.stat()
			if cs.Sam < cs.M {
				exact = false
			}
		}
		ts.Clusters = append(ts.Clusters, cs)
	}
	if len(strata) == 0 {
		// An empty window: zero records is a fact, not an estimate.
		return stats.Estimate{Conf: conf}, true
	}
	var est stats.Estimate
	switch op {
	case OpCount:
		est = ts.Count(conf)
	case OpMean:
		est = ts.Mean(conf)
	default:
		est = ts.Sum(conf)
	}
	return est, exact
}

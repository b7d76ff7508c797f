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

// estimateWindow folds the window's sorted strata into the two-stage
// estimator, each kept stratum one cluster, and returns the op's
// estimate plus whether it is exact (nothing shed, every stratum fully
// enumerated).
func estimateWindow(op Op, strata []*stratumState, conf float64) (stats.Estimate, bool) {
	if len(strata) == 0 {
		// An empty window: zero records is a fact, not an estimate.
		return stats.Estimate{Conf: conf}, true
	}
	var sums stats.ClusterSums
	var kept int
	var units, unitsSq int64
	exact := true
	for _, s := range strata {
		if s.shed {
			exact = false
			continue
		}
		M, m := s.count, s.count
		// Counting observes every unit: the per-unit value is the
		// constant 1, fully enumerated.
		rs := stats.RunningStat{Count: M, Sum: float64(M), SumSq: float64(M)}
		if op != OpCount {
			m = int64(len(s.res.vals))
			rs = s.res.stat()
			if m < M {
				exact = false
			}
		}
		sums.Add(M, m, rs)
		kept++
		units += M
		unitsSq += M * M
	}
	d := stats.NewDesign(int64(len(strata)), kept, units, unitsSq, conf, exact)
	if op == OpMean {
		return sums.Mean(&d), exact
	}
	return sums.Sum(&d), exact
}

package approx

import (
	"math"
	"testing"

	"approxhadoop/internal/mapreduce"
	"approxhadoop/internal/stats"
)

// refTwoStage is the independent reference for Section 3.1: the list
// form of the two-stage estimators, with s_u^2 and the mean's residual
// variance taken in two passes over the per-cluster totals, as
// stats.TwoStage computed them before it became a fold into
// stats.ClusterSums. The shipped estimators keep one-pass sums instead.
type refTwoStage struct {
	N        int64
	clusters []stats.ClusterSample
}

// refTotal is tau-hat_i = M_i * ybar_i.
func refTotal(c stats.ClusterSample) float64 {
	if c.Sam == 0 {
		return 0
	}
	return float64(c.M) * c.Stat.MeanOverN(c.Sam)
}

// refWithin is M_i (M_i - m_i) s_i^2 / m_i, zero for a fully
// enumerated cluster or a one-unit sample.
func refWithin(c stats.ClusterSample) float64 {
	if c.Sam < 2 || c.Sam >= c.M {
		return 0
	}
	return float64(c.M) * float64(c.M-c.Sam) * c.Stat.VarianceOverN(c.Sam) / float64(c.Sam)
}

func (ts refTwoStage) exhaustive() bool {
	if int64(len(ts.clusters)) != ts.N {
		return false
	}
	for _, c := range ts.clusters {
		if c.Sam < c.M {
			return false
		}
	}
	return true
}

func refUnbounded(est stats.Estimate) stats.Estimate {
	est.Err, est.StdErr = math.Inf(1), math.Inf(1)
	return est
}

// sum is Equations 1-3.
func (ts refTwoStage) sum(confidence float64) stats.Estimate {
	n := len(ts.clusters)
	est := stats.Estimate{Conf: confidence, DF: float64(n - 1)}
	if n == 0 {
		return refUnbounded(est)
	}
	N, fn := float64(ts.N), float64(n)
	totals := make([]float64, n)
	within, sum := 0.0, 0.0
	for i, c := range ts.clusters {
		totals[i] = refTotal(c)
		within += refWithin(c)
		sum += totals[i]
	}
	est.Value = N / fn * sum
	if ts.exhaustive() {
		return est
	}
	if n < 2 {
		return refUnbounded(est)
	}
	between := N * (N - fn) * stats.Variance(totals) / fn
	if between < 0 {
		between = 0
	}
	est.StdErr = math.Sqrt(between + N/fn*within)
	est.Err = stats.TwoSidedT(confidence, fn-1) * est.StdErr
	return est
}

// mean is the ratio estimator of the per-unit mean, linearized through
// the residuals tau_i - b*M_i.
func (ts refTwoStage) mean(confidence float64) stats.Estimate {
	n := len(ts.clusters)
	est := stats.Estimate{Conf: confidence, DF: float64(n - 1)}
	if n == 0 {
		return refUnbounded(est)
	}
	var sumY, sumX float64
	for _, c := range ts.clusters {
		sumY += refTotal(c)
		sumX += float64(c.M)
	}
	if sumX == 0 {
		return refUnbounded(est)
	}
	b := sumY / sumX
	est.Value = b
	if ts.exhaustive() {
		return est
	}
	if n < 2 {
		return refUnbounded(est)
	}
	N, fn := float64(ts.N), float64(n)
	resid := make([]float64, n)
	within := 0.0
	for i, c := range ts.clusters {
		resid[i] = refTotal(c) - b*float64(c.M)
		within += refWithin(c)
	}
	vTot := N*(N-fn)*stats.Variance(resid)/fn + N/fn*within
	if vTot < 0 {
		vTot = 0
	}
	est.StdErr = math.Sqrt(vTot) / (N / fn * sumX)
	est.Err = stats.TwoSidedT(confidence, fn-1) * est.StdErr
	return est
}

// TestReducerMatchesTwoStageTheory cross-checks the incremental
// MultiStageReducer and the stats.TwoStage fold, both one-pass reads of
// stats.ClusterSums, against the two-pass reference on identical
// cluster data. The "sparse" case leaves the key out of every third
// cluster, the batch plane's implicit zeros; in the "every cluster"
// case, the stream plane's shape, the key is in every consumed cluster
// and some are fully enumerated.
func TestReducerMatchesTwoStageTheory(t *testing.T) {
	const totalMaps = 12
	view := mapreduce.EstimateView{TotalMaps: totalMaps, Dropped: 0, Confidence: 0.95}

	for _, tc := range []struct {
		name    string
		present func(task int) bool
		full    func(task int) bool
	}{
		{"sparse", func(task int) bool { return task%3 != 1 }, func(int) bool { return false }},
		{"every cluster", func(int) bool { return true }, func(task int) bool { return task%2 == 0 }},
	} {
		for _, op := range []AggOp{OpSum, OpCount, OpMean} {
			rng := stats.NewRand(31)
			r := NewMultiStageReducer(op)
			ref := refTwoStage{N: totalMaps}
			ts := stats.TwoStage{N: totalMaps}
			for task := 0; task < 7; task++ {
				M := int64(80 + rng.Intn(40))
				m := int64(20 + rng.Intn(int(M)-20))
				if tc.full(task) {
					m = M
				}
				var rs stats.RunningStat
				r.Consume(mapOut(task, M, m, true, func(e mapreduce.Emitter) {
					if !tc.present(task) {
						return
					}
					for j := int64(0); j < m; j++ {
						if rng.Float64() < 0.7 { // some units emit nothing
							v := rng.Float64() * 10
							if op == OpCount {
								v = 1
							}
							rs.Add(v)
							e.Emit("k", v)
						}
					}
				}))
				ref.clusters = append(ref.clusters, stats.ClusterSample{M: M, Sam: m, Stat: rs})
				ts.Clusters = append(ts.Clusters, stats.ClusterSample{M: M, Sam: m, Stat: rs})
			}
			got := r.Finalize(view)
			if len(got) != 1 {
				t.Fatalf("%s op %v: outputs = %d", tc.name, op, len(got))
			}
			want, fold := ref.sum(0.95), ts.Sum(0.95)
			switch op {
			case OpMean:
				want, fold = ref.mean(0.95), ts.Mean(0.95)
			case OpCount:
				fold = ts.Count(0.95)
			}
			if !(want.Err > 0) || math.IsInf(want.Err, 1) {
				t.Fatalf("%s op %v: reference interval %v, want a finite positive one", tc.name, op, want.Err)
			}
			for _, side := range []struct {
				name string
				est  stats.Estimate
			}{{"reducer", got[0].Est}, {"TwoStage", fold}} {
				g := side.est
				if diff := relDiff(g.Value, want.Value); diff > 1e-9 {
					t.Errorf("%s op %v %s: value %v vs reference %v", tc.name, op, side.name, g.Value, want.Value)
				}
				if diff := relDiff(g.Err, want.Err); diff > 1e-9 {
					t.Errorf("%s op %v %s: err %v vs reference %v", tc.name, op, side.name, g.Err, want.Err)
				}
			}
		}
	}
}

func relDiff(a, b float64) float64 {
	d := a - b
	if d < 0 {
		d = -d
	}
	den := 1.0
	if b != 0 {
		if b < 0 {
			den = -b
		} else {
			den = b
		}
	}
	return d / den
}

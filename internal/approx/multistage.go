package approx

import (
	"math"

	"approxhadoop/internal/mapreduce"
	"approxhadoop/internal/stats"
)

// AggOp selects the aggregation a MultiStageReducer performs.
type AggOp int

// Supported aggregation operations (Section 3.1: sum, count, average;
// ratios combine two sum estimates, see stats.TwoStageRatio and
// RatioOfEstimates).
const (
	OpSum AggOp = iota
	OpCount
	OpMean
)

func (op AggOp) String() string {
	switch op {
	case OpSum:
		return "sum"
	case OpCount:
		return "count"
	default:
		return "mean"
	}
}

// keyAgg holds the incremental per-key aggregates of the two-stage
// estimators. Clusters where the key never appeared contribute
// tau_i = 0 and s_i^2 = 0, i.e. nothing — so only appearing clusters
// touch the accumulators and memory stays O(keys) regardless of how
// many map tasks the job has. This matters for jobs like the
// year-of-logs Page Popularity run with thousands of clusters.
type keyAgg struct {
	key     string
	units   int64   // sampled units that produced a value for the key
	sumTau  float64 // sum of cluster total estimates tau_i = M_i * ybar_i
	sumTau2 float64 // sum of tau_i^2 (for s_u^2)
	sumTauM float64 // sum of tau_i * M_i (for the mean/ratio residuals)
	within  float64 // sum of M_i (M_i - m_i) s_i^2 / m_i
	sumS2   float64 // sum of s_i^2 (for the controller's average)
}

// MultiStageReducer is the paper's MultiStageSamplingReducer: it
// aggregates intermediate values per key and, at estimate time,
// evaluates the two-stage sampling estimators of Section 3.1 with each
// map task as a cluster and each input data item as a unit; units that
// emitted nothing for a key count as implicit zeros.
//
// It accepts both raw pairs and combiner-compacted outputs; combining
// is lossless for these estimators because they only need per-(task,
// key) count/sum/sum-of-squares.
type MultiStageReducer struct {
	Op AggOp

	tally mapreduce.Tally
	sumM2 int64 // sum of M_i^2 over consumed clusters
	// table holds one keyAgg per key seen and index maps a key to its
	// slot. Slot order is insertion order — first-emit order within an
	// output, outputs in arrival order: nothing observable may depend
	// on it.
	table []keyAgg
	index map[string]int32
}

// NewMultiStageReducer builds a reducer for the given aggregation.
func NewMultiStageReducer(op AggOp) *MultiStageReducer {
	return &MultiStageReducer{Op: op, index: make(map[string]int32)}
}

// Consume implements mapreduce.ReduceLogic.
func (r *MultiStageReducer) Consume(out *mapreduce.MapOutput) {
	r.tally.Add(out)
	r.sumM2 += out.Items * out.Items
	M := float64(out.Items)
	m := out.Sampled
	out.EachStat(func(key string, rs stats.RunningStat) {
		slot, ok := r.index[key]
		if !ok {
			slot = int32(len(r.table))
			r.index[key] = slot
			r.table = append(r.table, keyAgg{key: key})
		}
		agg := &r.table[slot]
		if m <= 0 {
			return
		}
		tau := M * rs.MeanOverN(m)
		s2 := rs.VarianceOverN(m)
		agg.units += rs.Count
		agg.sumTau += tau
		agg.sumTau2 += tau * tau
		agg.sumTauM += tau * M
		agg.sumS2 += s2
		if m >= 2 && float64(m) < M {
			agg.within += M * (M - float64(m)) * s2 / float64(m)
		}
	})
}

// su2 returns s_u^2, the variance of the cluster total estimates
// across all n consumed clusters (implicit zero clusters included via
// n and the zero contributions to the sums).
func (r *MultiStageReducer) su2(agg *keyAgg) float64 {
	if r.tally.Clusters() < 2 {
		return 0
	}
	n := float64(r.tally.Clusters())
	mean := agg.sumTau / n
	v := (agg.sumTau2 - n*mean*mean) / (n - 1)
	if v < 0 {
		return 0
	}
	return v
}

// tCrit returns t_{n-1,1-alpha/2}, the quantile every key's interval
// shares; estimate reads it only for inexact data over two or more
// clusters.
func (r *MultiStageReducer) tCrit(view mapreduce.EstimateView) float64 {
	if r.tally.Clusters() < 2 || r.tally.Exact(view) {
		return 0
	}
	return stats.TwoSidedT(view.Confidence, float64(r.tally.Clusters())-1)
}

// estimate evaluates one key's estimator; t is r.tCrit(view).
func (r *MultiStageReducer) estimate(agg *keyAgg, view mapreduce.EstimateView, t float64) stats.Estimate {
	N := float64(view.TotalMaps)
	n := float64(r.tally.Clusters())
	exact := r.tally.Exact(view)
	est := stats.Estimate{Conf: view.Confidence, DF: n - 1}
	if n == 0 {
		est.Err = math.Inf(1)
		est.StdErr = math.Inf(1)
		return est
	}
	switch r.Op {
	case OpMean:
		units := float64(r.tally.Units())
		if units == 0 {
			est.Err = math.Inf(1)
			est.StdErr = math.Inf(1)
			return est
		}
		b := agg.sumTau / units
		est.Value = b
		if exact {
			return est
		}
		if n < 2 {
			est.Err = math.Inf(1)
			est.StdErr = math.Inf(1)
			return est
		}
		// Residuals d_i = tau_i - b*M_i have mean exactly zero, so
		// s_d^2 = sum(d_i^2) / (n-1) with
		// sum(d_i^2) = sumTau2 - 2b*sumTauM + b^2*sumM2.
		sd2 := (agg.sumTau2 - 2*b*agg.sumTauM + b*b*float64(r.sumM2)) / (n - 1)
		if sd2 < 0 {
			sd2 = 0
		}
		varTot := N*(N-n)*sd2/n + N/n*agg.within
		if varTot < 0 {
			varTot = 0
		}
		tx := N / n * units
		est.StdErr = math.Sqrt(varTot) / tx
		est.Err = t * est.StdErr
		return est
	default: // OpSum, OpCount
		est.Value = N / n * agg.sumTau
		if exact {
			return est
		}
		if n < 2 {
			est.Err = math.Inf(1)
			est.StdErr = math.Inf(1)
			return est
		}
		between := N * (N - n) * r.su2(agg) / n
		if between < 0 {
			between = 0
		}
		variance := between + N/n*agg.within
		est.StdErr = math.Sqrt(variance)
		est.Err = t * est.StdErr
		return est
	}
}

// Estimates implements mapreduce.ReduceLogic.
func (r *MultiStageReducer) Estimates(view mapreduce.EstimateView) []mapreduce.KeyEstimate {
	return r.Finalize(view)
}

// Finalize implements mapreduce.ReduceLogic.
func (r *MultiStageReducer) Finalize(view mapreduce.EstimateView) []mapreduce.KeyEstimate {
	exact := r.tally.Exact(view)
	t := r.tCrit(view)
	out := make([]mapreduce.KeyEstimate, 0, len(r.table))
	for i := range r.table {
		agg := &r.table[i]
		out = append(out, mapreduce.KeyEstimate{Key: agg.key, Est: r.estimate(agg, view, t), Exact: exact})
	}
	mapreduce.SortByKey(out)
	return out
}

// PlanComponent exposes, per key, the variance pieces the target-error
// controller needs to predict the effect of running n2 more tasks at
// sampling ratio m/M (Equations 6 and 7).
type PlanComponent struct {
	Key        string
	Tau        float64 // current point estimate of the total
	SU2        float64 // s_u^2: variance of per-cluster total estimates
	WithinDone float64 // sum over consumed clusters of M(M-m)s^2/m
	AvgWithin  float64 // mean within-cluster variance s_i^2
}

// planStat is one key's PlanComponent in a controller's planTable, with
// the key's partition and table slot in place of a copy of the key.
type planStat struct {
	tau, su2, withinDone, avgWithin float64
	part, slot                      int32
}

// appendPlanStats appends planning statistics for every key seen so
// far; with fewer than two consumed clusters there are none.
//
//approx:hotpath
func (r *MultiStageReducer) appendPlanStats(dst []planStat, part int32, totalMaps int) []planStat {
	if r.tally.Clusters() < 2 {
		return dst
	}
	N := float64(totalMaps)
	n := float64(r.tally.Clusters())
	for i := range r.table {
		agg := &r.table[i]
		dst = append(dst, planStat{
			tau:        N / n * agg.sumTau,
			su2:        r.su2(agg),
			withinDone: agg.within,
			avgWithin:  agg.sumS2 / n,
			part:       part,
			slot:       int32(i),
		})
	}
	return dst
}

// probe is the part of Equations 4, 6 and 7 every key shares at one
// candidate plan: n2 more clusters of mbar units, m of them sampled, on
// top of n1 consumed ones. The products keep the operand order of the
// one-pass formula they were hoisted from, so errHalf rounds as it did.
// With fewer than two clusters there is no quantile: t, and so every
// half-width, is NaN, which the planners read as infeasible.
type probe struct {
	n      float64 // n1 + n2
	t      float64 // t_{n-1,1-alpha/2}
	spread float64 // N*(N-n), the factor of s_u^2
	scale  float64 // N/n
	extra  float64 // n2*mbar*(mbar-m), the factor of AvgWithin
	m      float64 // clamped to [1, mbar]
}

func newProbe(totalMaps, n1, n2 int, mbar, m, confidence float64) probe {
	if m <= 0 {
		m = 1
	}
	if m > mbar {
		m = mbar
	}
	N := float64(totalMaps)
	n := float64(n1 + n2)
	return probe{
		n:      n,
		t:      stats.TwoSidedT(confidence, n-1),
		spread: N * (N - n),
		scale:  N / n,
		extra:  float64(n2) * mbar * (mbar - m),
		m:      m,
	}
}

// errHalf is the predicted confidence-interval half width of a key with
// the given variance components at the probe's plan.
//
//approx:hotpath
func (p *probe) errHalf(su2, withinDone, avgWithin float64) float64 {
	between := p.spread * su2 / p.n
	if between < 0 {
		between = 0
	}
	cvar := withinDone + p.extra*avgWithin/p.m
	variance := between + p.scale*cvar
	if variance < 0 {
		variance = 0
	}
	return p.t * math.Sqrt(variance)
}

// PredictError evaluates the paper's Equations 4, 6 and 7: the
// predicted confidence-interval half width for a key if, on top of the
// n1 consumed clusters, n2 more clusters of Mbar units are executed
// with m of their units sampled each.
func PredictError(pc PlanComponent, totalMaps, n1, n2 int, mbar, m float64, confidence float64) float64 {
	if n1+n2 < 2 {
		return math.Inf(1)
	}
	p := newProbe(totalMaps, n1, n2, mbar, m, confidence)
	return p.errHalf(pc.SU2, pc.WithinDone, pc.AvgWithin)
}

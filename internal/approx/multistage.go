package approx

import (
	"math"
	"slices"

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

// keyAgg is one key's slot: its stats.ClusterSums, to which only the
// clusters where the key appeared contribute, so memory stays O(keys)
// regardless of how many map tasks the job has. This matters for jobs
// like the year-of-logs Page Popularity run with thousands of clusters.
// The key itself is the reducer's index entry with the slot's ID.
type keyAgg struct {
	units int64 // sampled units that produced a value for the key
	sums  stats.ClusterSums
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
	// table holds one keyAgg per key seen, at the key's ID in index,
	// which keeps the durable key strings the map outputs hand over.
	// Slot order is insertion order — first-emit order within an output,
	// outputs in arrival order: nothing observable may depend on it.
	table []keyAgg
	index mapreduce.KeyIndex
}

// NewMultiStageReducer builds a reducer for the given aggregation.
func NewMultiStageReducer(op AggOp) *MultiStageReducer {
	return &MultiStageReducer{Op: op}
}

// key returns the key of table slot i.
func (r *MultiStageReducer) key(i int) string { return r.index.Key(int32(i)) }

// Consume implements mapreduce.ReduceLogic.
func (r *MultiStageReducer) Consume(out *mapreduce.MapOutput) {
	r.tally.Add(out)
	out.EachStat(func(key string, rs stats.RunningStat) {
		slot, added := r.index.Insert(key)
		if added {
			// The table grows when the index does.
			r.table = append(slices.Grow(r.table, r.index.Cap()-len(r.table)), keyAgg{})
		}
		agg := &r.table[slot]
		if out.Sampled <= 0 {
			return
		}
		agg.units += rs.Count
		agg.sums.Add(out.Items, out.Sampled, rs)
	})
}

// estimate evaluates one key's estimator under the reducer's design d.
func (r *MultiStageReducer) estimate(agg *keyAgg, d *stats.Design) stats.Estimate {
	if r.Op == OpMean {
		return agg.sums.Mean(d)
	}
	return agg.sums.Sum(d)
}

// Estimates implements mapreduce.ReduceLogic.
func (r *MultiStageReducer) Estimates(view mapreduce.EstimateView) []mapreduce.KeyEstimate {
	return r.Finalize(view)
}

// Finalize implements mapreduce.ReduceLogic.
func (r *MultiStageReducer) Finalize(view mapreduce.EstimateView) []mapreduce.KeyEstimate {
	exact := r.tally.Exact(view)
	d := r.tally.Design(view)
	out := make([]mapreduce.KeyEstimate, 0, len(r.table))
	for i := range r.table {
		out = append(out, mapreduce.KeyEstimate{Key: r.key(i), Est: r.estimate(&r.table[i], &d), Exact: exact})
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
func (r *MultiStageReducer) appendPlanStats(dst []planStat, part int32, view mapreduce.EstimateView) []planStat {
	if r.tally.Clusters() < 2 {
		return dst
	}
	d := r.tally.Design(view)
	for i := range r.table {
		s := planStat{part: part, slot: int32(i)}
		s.tau, s.su2, s.withinDone, s.avgWithin = r.table[i].sums.Plan(&d)
		dst = append(dst, s)
	}
	return dst
}

// probe is the part of Equations 4, 6 and 7 every key shares at one
// candidate plan: n2 more clusters of mbar units, m of them sampled, on
// top of n1 consumed ones — the design of n1+n2 clusters plus the
// within-cluster variance the n2 will add. The products keep the
// operand order of the one-pass formula they were hoisted from, so
// errHalf rounds as it did. With fewer than two clusters there is no
// quantile: t, and so every half-width, is NaN, which the planners read
// as infeasible.
type probe struct {
	d     stats.Design
	extra float64 // n2*mbar*(mbar-m), the factor of AvgWithin
	m     float64 // clamped to [1, mbar]
}

func newProbe(totalMaps, n1, n2 int, mbar, m, confidence float64) probe {
	if m <= 0 {
		m = 1
	}
	if m > mbar {
		m = mbar
	}
	return probe{
		d:     stats.NewDesign(int64(totalMaps), n1+n2, 0, 0, confidence, false),
		extra: float64(n2) * mbar * (mbar - m),
		m:     m,
	}
}

// errHalf is the predicted confidence-interval half width of a key with
// the given variance components at the probe's plan.
//
//approx:hotpath
func (p *probe) errHalf(su2, withinDone, avgWithin float64) float64 {
	return p.d.T() * math.Sqrt(p.d.Variance(su2, withinDone+p.extra*avgWithin/p.m))
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

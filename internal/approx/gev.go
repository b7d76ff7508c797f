package approx

import (
	"math"
	"slices"

	"approxhadoop/internal/mapreduce"
	"approxhadoop/internal/stats"
)

// ExtremeValueReducer is the paper's ApproxMinReducer/ApproxMaxReducer
// (Section 3.2): it keeps the raw values produced for each key and, at
// estimate time, fits a Generalized Extreme Value distribution to them
// to bound how far the true extreme may lie beyond the observed one.
//
// Each map task outputs the min/max of its own search, so the values a
// key collects are already a sample of block extrema (Section 3.2's
// Block Minima/Maxima, with a map task as the block) and are fit as
// they stand.
//
// The reported estimate is the extreme observed so far; its interval
// half-width covers the GEV tail estimate: for a minimum,
// [gevLow, observed], where gevLow is the lower confidence bound of
// the GEV quantile at tailP. Combiner output is unsupported — the fit
// needs raw values — and is reported as an unbounded estimate.
type ExtremeValueReducer struct {
	Min bool // estimate a minimum (false: maximum)

	tally mapreduce.Tally
	// values holds each key's values at the key's ID in index.
	index         mapreduce.KeyIndex
	values        [][]float64
	misconfigured bool // combiner output seen
}

// The GEV fit's tuning: the tail percentile of the quantile it bounds,
// and the fewest extrema it fits.
const (
	tailP     = 0.01
	minSample = 8
)

// NewMinReducer builds an ExtremeValueReducer for minima over per-task
// extrema (the DC-placement pattern).
func NewMinReducer() *ExtremeValueReducer {
	return &ExtremeValueReducer{Min: true}
}

// NewMaxReducer builds an ExtremeValueReducer for maxima over per-task
// extrema.
func NewMaxReducer() *ExtremeValueReducer {
	return &ExtremeValueReducer{Min: false}
}

// Consume implements mapreduce.ReduceLogic.
func (r *ExtremeValueReducer) Consume(out *mapreduce.MapOutput) {
	r.tally.Add(out)
	if out.IsCombined() {
		r.misconfigured = true
		return
	}
	out.EachPair(func(k string, v float64) {
		id, added := r.index.Insert(k)
		if added {
			r.values = append(r.values, nil)
		}
		r.values[id] = append(r.values[id], v)
	})
}

// Observed returns the raw extreme seen so far for a key.
func (r *ExtremeValueReducer) Observed(key string) (float64, bool) {
	id, ok := r.index.Find(key)
	if !ok {
		return 0, false
	}
	lo, hi := stats.MinMax(r.values[id])
	if r.Min {
		return lo, true
	}
	return hi, true
}

func (r *ExtremeValueReducer) estimate(vals []float64, view mapreduce.EstimateView) (stats.Estimate, bool) {
	obs := vals[0]
	for _, v := range vals[1:] {
		if r.Min && v < obs || !r.Min && v > obs {
			obs = v
		}
	}
	est := stats.Estimate{Value: obs, Conf: view.Confidence, DF: float64(len(vals) - 1)}
	if r.misconfigured {
		est.Err = math.NaN()
		est.StdErr = math.NaN()
		return est, false
	}
	if r.tally.Exact(view) {
		return est, true
	}
	// The fit reads a sorted copy of the per-task extrema: the GEV
	// likelihood is symmetric in its sample, so sorting moves nothing
	// but rounding, and it makes the fit independent of arrival order.
	sample := slices.Clone(vals)
	slices.Sort(sample)
	if len(sample) < minSample {
		est.Err = math.Inf(1)
		est.StdErr = math.Inf(1)
		return est, false
	}
	var fit stats.GEVFit
	var err error
	if r.Min {
		fit, err = stats.FitGEVMinima(sample)
	} else {
		fit, err = stats.FitGEVMaxima(sample)
	}
	if err != nil {
		est.Err = math.Inf(1)
		est.StdErr = math.Inf(1)
		return est, false
	}
	tail := fit.ExtremeEstimate(tailP, view.Confidence)
	// The true extreme can only be at or beyond the observed one; the
	// GEV tail bound says how far beyond is plausible.
	var half float64
	if r.Min {
		half = obs - (tail.Value - tail.Err)
	} else {
		half = (tail.Value + tail.Err) - obs
	}
	if half < 0 || math.IsNaN(half) {
		half = 0
	}
	est.Err = half
	est.StdErr = tail.StdErr
	return est, false
}

// Estimates implements mapreduce.ReduceLogic.
func (r *ExtremeValueReducer) Estimates(view mapreduce.EstimateView) []mapreduce.KeyEstimate {
	return r.Finalize(view)
}

// Finalize implements mapreduce.ReduceLogic.
func (r *ExtremeValueReducer) Finalize(view mapreduce.EstimateView) []mapreduce.KeyEstimate {
	out := make([]mapreduce.KeyEstimate, 0, len(r.values))
	for id, vals := range r.values {
		est, exact := r.estimate(vals, view)
		out = append(out, mapreduce.KeyEstimate{Key: r.index.Key(int32(id)), Est: est, Exact: exact})
	}
	mapreduce.SortByKey(out)
	return out
}

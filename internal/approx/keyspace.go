package approx

import (
	"math"

	"approxhadoop/internal/mapreduce"
	"approxhadoop/internal/stats"
)

// This file implements the two answers Section 3.1 gives to the
// "missed intermediate keys" limitation of online sampling:
//
//  1. If the set of all keys is known a priori, keys absent from the
//     sample can be reported as 0 plus a bound at the job's confidence
//     level (MissingKeyBound).
//  2. Otherwise, the overall number of distinct keys can be estimated
//     by extrapolating from the sample (the paper cites Haas et al.,
//     VLDB'95); DistinctKeys implements the Chao1 abundance estimator
//     with its standard variance.

// MissingKeyBound bounds the total value of a key that was never
// observed in the sample, assuming at most one occurrence per input
// unit (indicator-style counts, e.g. word-count or histogram apps).
//
// If a key had per-unit prevalence p, the chance that s independent
// sampled units all missed it is (1-p)^s; requiring this to be at
// least alpha = 1-confidence gives p <= 1 - alpha^(1/s), so the key's
// population total is at most T-hat * (1 - alpha^(1/s)). This is the
// paper's "0 plus a bound, with a certain level of confidence": small
// relative to the bounds of observed keys because misses only happen
// to rare keys (e.g. the WikiLength missing sizes were bounded at ±197
// against ±33,408 for observed sizes).
func (r *MultiStageReducer) MissingKeyBound(view mapreduce.EstimateView) stats.Estimate {
	n := r.tally.Clusters()
	est := stats.Estimate{Value: 0, Conf: view.Confidence, DF: float64(n - 1)}
	s := float64(r.tally.SampledUnits())
	if s <= 0 {
		est.Err = math.Inf(1)
		est.StdErr = math.Inf(1)
		return est
	}
	alpha := 1 - view.Confidence
	if alpha <= 0 || alpha >= 1 {
		alpha = 0.05
	}
	pMax := 1 - math.Pow(alpha, 1/s)
	// T-hat: estimated number of units in the population.
	var tHat float64
	if n > 0 {
		tHat = float64(view.TotalMaps) / float64(n) * float64(r.tally.Units())
	}
	est.Err = tHat * pMax
	est.StdErr = est.Err / 2 // nominal; the bound itself is the deliverable
	return est
}

// DistinctKeys estimates the number of distinct keys in the whole
// population from the sampled keys' unit frequencies, using the Chao1
// lower-bound estimator:
//
//	D-hat = d + f1^2 / (2 f2)
//
// where d is the number of distinct keys observed, f1 the keys
// observed in exactly one sampled unit and f2 in exactly two. The
// returned interval uses Chao's asymptotic variance. When f2 = 0 the
// bias-corrected form d + f1(f1-1)/2 is used.
func (r *MultiStageReducer) DistinctKeys(view mapreduce.EstimateView) stats.Estimate {
	est := stats.Estimate{Conf: view.Confidence}
	d := float64(len(r.table))
	if r.tally.Exact(view) {
		est.Value = d
		return est
	}
	var f1, f2 float64
	for i := range r.table {
		switch r.table[i].units {
		case 1:
			f1++
		case 2:
			f2++
		}
	}
	switch {
	case f1 == 0:
		// Every key seen at least twice: the sample has likely
		// saturated the key space.
		est.Value = d
		est.Err = 0
	case f2 == 0:
		est.Value = d + f1*(f1-1)/2
		est.Err = est.Value - d // crude: the extrapolated part
		est.StdErr = est.Err / 2
	default:
		g := f1 / f2
		est.Value = d + f1*f1/(2*f2)
		variance := f2 * (g*g*g*g/4 + g*g*g + g*g/2)
		est.StdErr = math.Sqrt(variance)
		est.Err = stats.NormalQuantile(1-(1-view.Confidence)/2) * est.StdErr
	}
	est.DF = d - 1
	return est
}

package stats

import (
	"math"
	"sort"
)

// Mean returns the arithmetic mean of xs, or NaN for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Variance returns the unbiased sample variance of xs (denominator n-1).
// It returns 0 for slices with fewer than two elements.
func Variance(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	m := Mean(xs)
	s := 0.0
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return s / float64(n-1)
}

// StdDev returns the unbiased sample standard deviation of xs.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// Percentile returns the p-th percentile (0 <= p <= 100) of xs using
// linear interpolation between closest ranks. The input is not modified.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	cp := make([]float64, len(xs))
	copy(cp, xs)
	sort.Float64s(cp)
	if p <= 0 {
		return cp[0]
	}
	if p >= 100 {
		return cp[len(cp)-1]
	}
	rank := p / 100 * float64(len(cp)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return cp[lo]
	}
	frac := rank - float64(lo)
	return cp[lo]*(1-frac) + cp[hi]*frac
}

// RunningStat accumulates count, sum and sum of squares incrementally.
// It is the per-(task, key) record that approximate mappers forward to
// reducers: together with the block unit counts it is sufficient to
// evaluate the multi-stage sampling variance with implicit zero values.
type RunningStat struct {
	Count int64
	Sum   float64
	SumSq float64
}

// Add records one observation.
func (r *RunningStat) Add(v float64) {
	r.Count++
	r.Sum += v
	r.SumSq += v * v
}

// MeanOverN returns the mean assuming the observations are padded with
// implicit zeros up to n units.
func (r RunningStat) MeanOverN(n int64) float64 {
	if n <= 0 {
		return 0
	}
	return r.Sum / float64(n)
}

// VarianceOverN returns the unbiased sample variance assuming implicit
// zeros pad the sample to n units: the Count recorded values plus
// (n-Count) zeros.
func (r RunningStat) VarianceOverN(n int64) float64 {
	if n < 2 {
		return 0
	}
	mean := r.Sum / float64(n)
	// Sum of squared deviations = SumSq - n*mean^2 (zeros contribute
	// mean^2 each, already accounted for by the n*mean^2 term).
	ss := r.SumSq - float64(n)*mean*mean
	if ss < 0 {
		ss = 0 // guard against floating-point cancellation
	}
	return ss / float64(n-1)
}

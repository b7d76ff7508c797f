package mapreduce

import (
	"math"
	"slices"

	"approxhadoop/internal/stats"
)

// PreciseReduce adapts a classic Hadoop-style reduce function — called
// once per key with all its values — to the incremental ReduceLogic
// interface. It buffers values per key and applies the function at
// finalize time. When the job sampled or dropped anything, the result
// carries an unknown (NaN) error bound, matching the paper: arbitrary
// programs can be approximated, but ApproxHadoop cannot bound their
// error (Section 1).
type PreciseReduce struct {
	fn func(key string, values []float64) float64
	// values holds each key's values at the key's ID in index.
	index  KeyIndex
	values [][]float64
	tally  Tally
	// combinerSafe declares fn distributive over per-task sums:
	// fn(sums of groups) == fn(all values), as for sum/count. Only then
	// may combined outputs fold to rs.Sum losslessly.
	combinerSafe bool
	lossy        bool // a non-safe fn consumed truly combined values
}

// NewPreciseReduce wraps a classic reduce function. Finalize calls it
// once per key with the key's values in ascending order, so its result
// does not depend on the order map outputs arrive in. The function is
// assumed NOT combiner-safe: if the job also enables Combine, outputs
// are flagged Lossy (see CombinerSafe).
func NewPreciseReduce(fn func(key string, values []float64) float64) *PreciseReduce {
	return &PreciseReduce{fn: fn}
}

// CombinerSafe declares the reduce function distributive over sums —
// fn applied to per-task partial sums equals fn applied to the raw
// values, as for sum and count — and returns the receiver. Only such
// functions compose correctly with Job.Combine; others get their
// outputs flagged Lossy instead of silently wrong.
func (r *PreciseReduce) CombinerSafe() *PreciseReduce {
	r.combinerSafe = true
	return r
}

// Consume implements ReduceLogic.
func (r *PreciseReduce) Consume(out *MapOutput) {
	r.tally.Add(out)
	if out.IsCombined() {
		out.EachCombined(func(key string, rs stats.RunningStat) {
			// Combined outputs lose individual values; the sum is a
			// correct stand-in only for combiner-safe (distributive)
			// functions. For others, record that real aggregation
			// happened (count > 1 means values were actually folded)
			// so Finalize can mark the result lossy rather than emit a
			// silently incorrect number.
			if !r.combinerSafe && rs.Count > 1 {
				r.lossy = true
			}
			r.add(key, rs.Sum)
		})
		return
	}
	out.EachPair(r.add)
}

// add appends one of key's values.
func (r *PreciseReduce) add(key string, value float64) {
	id, added := r.index.Insert(key)
	if added {
		r.values = append(r.values, nil)
	}
	r.values[id] = append(r.values[id], value)
}

// Estimates implements ReduceLogic; precise reduces cannot estimate
// mid-flight, so it returns nil.
func (r *PreciseReduce) Estimates(EstimateView) []KeyEstimate { return nil }

// Finalize implements ReduceLogic.
func (r *PreciseReduce) Finalize(view EstimateView) []KeyEstimate {
	approx := !r.tally.Exact(view)
	out := make([]KeyEstimate, 0, len(r.values))
	for id, vals := range r.values {
		key := r.index.Key(int32(id))
		slices.Sort(vals)
		ke := KeyEstimate{Key: key, Exact: !approx && !r.lossy, Lossy: r.lossy}
		ke.Est = stats.Estimate{Value: r.fn(key, vals), Conf: view.Confidence}
		if approx || r.lossy {
			ke.Est.Err = math.NaN()
			ke.Est.StdErr = math.NaN()
		}
		out = append(out, ke)
	}
	SortByKey(out)
	return out
}

// SumReduce returns a PreciseReduce that sums each key's values — the
// standard Hadoop sum reducer used by precise baselines. Summation is
// combiner-safe, so it composes with Job.Combine losslessly.
func SumReduce() *PreciseReduce {
	return NewPreciseReduce(func(_ string, vals []float64) float64 {
		s := 0.0
		for _, v := range vals {
			s += v
		}
		return s
	}).CombinerSafe()
}

// MeanReduce returns a PreciseReduce averaging each key's values.
func MeanReduce() *PreciseReduce {
	return NewPreciseReduce(func(_ string, vals []float64) float64 {
		if len(vals) == 0 {
			return 0
		}
		s := 0.0
		for _, v := range vals {
			s += v
		}
		return s / float64(len(vals))
	})
}

// MinReduce returns a PreciseReduce taking each key's minimum.
func MinReduce() *PreciseReduce {
	return NewPreciseReduce(func(_ string, vals []float64) float64 {
		m := math.Inf(1)
		for _, v := range vals {
			if v < m {
				m = v
			}
		}
		return m
	})
}

// MaxReduce returns a PreciseReduce taking each key's maximum.
func MaxReduce() *PreciseReduce {
	return NewPreciseReduce(func(_ string, vals []float64) float64 {
		m := math.Inf(-1)
		for _, v := range vals {
			if v > m {
				m = v
			}
		}
		return m
	})
}

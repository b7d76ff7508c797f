package approx

import (
	"math"
	"testing"
	"testing/quick"

	"approxhadoop/internal/mapreduce"
	"approxhadoop/internal/stats"
)

// genOutputs builds a deterministic set of map outputs from a seed.
func genOutputs(seed int64, clusters int) []*mapreduce.MapOutput {
	rng := stats.NewRand(seed)
	outs := make([]*mapreduce.MapOutput, clusters)
	for i := range outs {
		M := int64(50 + rng.Intn(100))
		m := int64(10 + rng.Intn(int(M)-10))
		outs[i] = mapOut(i, M, m, false, func(e mapreduce.Emitter) {
			for j := int64(0); j < m; j++ {
				if rng.Float64() < 0.6 {
					key := []string{"a", "b", "c"}[rng.Intn(3)]
					e.Emit(key, rng.Float64()*10)
				}
			}
		})
	}
	return outs
}

// combinedCopy converts a raw output into its combiner-compacted form.
func combinedCopy(out *mapreduce.MapOutput) *mapreduce.MapOutput {
	return mapOut(out.TaskID, out.Items, out.Sampled, true, func(e mapreduce.Emitter) { out.EachPair(e.Emit) })
}

func estimatesEqual(a, b []mapreduce.KeyEstimate, tol float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Key != b[i].Key {
			return false
		}
		if math.Abs(a[i].Est.Value-b[i].Est.Value) > tol*(1+math.Abs(b[i].Est.Value)) {
			return false
		}
		ea, eb := a[i].Est.Err, b[i].Est.Err
		if math.IsInf(ea, 1) != math.IsInf(eb, 1) {
			return false
		}
		if !math.IsInf(ea, 1) && math.Abs(ea-eb) > tol*(1+math.Abs(eb)) {
			return false
		}
	}
	return true
}

// TestPropertyConsumeOrderInvariance: every estimator here is symmetric
// in its clusters, so any consumption order must give the same
// estimates, compared bit for bit. MultiStageReducer is the exception
// that remains (ROADMAP item 1): its per-key sums are float64 additions
// in arrival order, so its rows compare to 1e-9 until they are exact.
func TestPropertyConsumeOrderInvariance(t *testing.T) {
	approxEqual := func(a, b []mapreduce.KeyEstimate) bool { return estimatesEqual(a, b, 1e-9) }
	for _, row := range []struct {
		name string
		mk   func() mapreduce.ReduceLogic
		same func(a, b []mapreduce.KeyEstimate) bool
	}{
		{"multistage sum", func() mapreduce.ReduceLogic { return NewMultiStageReducer(OpSum) }, approxEqual},
		{"multistage count", func() mapreduce.ReduceLogic { return NewMultiStageReducer(OpCount) }, approxEqual},
		{"multistage mean", func() mapreduce.ReduceLogic { return NewMultiStageReducer(OpMean) }, approxEqual},
		{"three-stage", func() mapreduce.ReduceLogic { return NewThreeStageReducer() }, estimatesIdentical},
		{"precise sum", func() mapreduce.ReduceLogic { return mapreduce.SumReduce() }, estimatesIdentical},
		{"precise mean", func() mapreduce.ReduceLogic { return mapreduce.MeanReduce() }, estimatesIdentical},
		{"precise min", func() mapreduce.ReduceLogic { return mapreduce.MinReduce() }, estimatesIdentical},
		{"precise max", func() mapreduce.ReduceLogic { return mapreduce.MaxReduce() }, estimatesIdentical},
		{"gev min", func() mapreduce.ReduceLogic { return NewMinReducer() }, estimatesIdentical},
		{"gev max", func() mapreduce.ReduceLogic { return NewMaxReducer() }, estimatesIdentical},
	} {
		const K = 30
		for k := int64(0); k < K; k++ {
			outs := genOutputs(k, 8)
			view := mapreduce.EstimateView{TotalMaps: 16, Confidence: 0.95}
			fwd, shuf := row.mk(), row.mk()
			for _, o := range outs {
				fwd.Consume(o)
			}
			for _, i := range stats.NewRand(1000 + k).Perm(len(outs)) {
				shuf.Consume(outs[i])
			}
			if a, b := fwd.Finalize(view), shuf.Finalize(view); !row.same(a, b) {
				t.Errorf("%s, seed %d: a permuted consume order moved the estimates:\n%+v\n%+v", row.name, k, a, b)
				break
			}
		}
	}
}

// same is a == b with NaN equal to NaN.
func same(a, b float64) bool {
	return stats.AlmostEqual(a, b, 0) || math.IsNaN(a) && math.IsNaN(b)
}

// estimatesIdentical compares outputs field by field with same.
func estimatesIdentical(a, b []mapreduce.KeyEstimate) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		x, y := a[i], b[i]
		if x.Key != y.Key || x.Exact != y.Exact || x.Lossy != y.Lossy ||
			!same(x.Est.Value, y.Est.Value) || !same(x.Est.Err, y.Est.Err) ||
			!same(x.Est.StdErr, y.Est.StdErr) || !same(x.Est.DF, y.Est.DF) || !same(x.Est.Conf, y.Est.Conf) {
			return false
		}
	}
	return true
}

// TestPropertyCombinerEquivalence: combiner-compacted outputs must
// produce exactly the same estimates as raw pairs.
func TestPropertyCombinerEquivalence(t *testing.T) {
	for _, tc := range []struct {
		name string
		mk   func() mapreduce.ReduceLogic
	}{
		{"sum", func() mapreduce.ReduceLogic { return NewMultiStageReducer(OpSum) }},
		{"count", func() mapreduce.ReduceLogic { return NewMultiStageReducer(OpCount) }},
		{"mean", func() mapreduce.ReduceLogic { return NewMultiStageReducer(OpMean) }},
		{"three-stage", func() mapreduce.ReduceLogic { return NewThreeStageReducer() }},
	} {
		err := quick.Check(func(seedRaw uint32) bool {
			outs := genOutputs(int64(seedRaw%1000)+7, 6)
			view := mapreduce.EstimateView{TotalMaps: 10, Confidence: 0.95}
			raw, comb := tc.mk(), tc.mk()
			for _, o := range outs {
				raw.Consume(o)
				comb.Consume(combinedCopy(o))
			}
			return estimatesIdentical(raw.Finalize(view), comb.Finalize(view))
		}, &quick.Config{MaxCount: 20})
		if err != nil {
			t.Errorf("%s: %v", tc.name, err)
		}
	}
}

// TestPropertyMoreDataNeverWidens: adding a cluster with data can only
// shrink (or keep) the error bound of the sum estimate in expectation;
// we check the deterministic monotone case of identical clusters.
func TestPropertyMoreDataNeverWidens(t *testing.T) {
	err := quick.Check(func(valSeed uint32) bool {
		rng := stats.NewRand(int64(valSeed % 997))
		mk := func(task int) *mapreduce.MapOutput {
			return mapOut(task, 80, 40, true, func(e mapreduce.Emitter) {
				for j := 0; j < 40; j++ {
					e.Emit("k", 5+rng.Float64()) // low-variance values
				}
			})
		}
		small := NewMultiStageReducer(OpSum)
		large := NewMultiStageReducer(OpSum)
		for task := 0; task < 4; task++ {
			o := mk(task)
			small.Consume(o)
			large.Consume(o)
		}
		for task := 4; task < 12; task++ {
			large.Consume(mk(task))
		}
		viewS := mapreduce.EstimateView{TotalMaps: 20, Confidence: 0.95}
		viewL := mapreduce.EstimateView{TotalMaps: 20, Confidence: 0.95}
		es := small.Finalize(viewS)[0].Est
		el := large.Finalize(viewL)[0].Est
		return el.Err <= es.Err*1.5 // generous: variance estimates fluctuate
	}, &quick.Config{MaxCount: 20})
	if err != nil {
		t.Error(err)
	}
}

// TestPropertyExtremeReducerMonotone: the observed extreme is monotone
// under additional consumption.
func TestPropertyExtremeReducerMonotone(t *testing.T) {
	err := quick.Check(func(seedRaw uint32) bool {
		rng := stats.NewRand(int64(seedRaw % 4099))
		r := NewMinReducer()
		obs := math.Inf(1)
		for task := 0; task < 20; task++ {
			v := rng.NormFloat64() * 100
			r.Consume(mapOut(task, 1, 1, false, emitValues("m", v)))
			if v < obs {
				obs = v
			}
			got, ok := r.Observed("m")
			if !ok || !stats.AlmostEqual(got, obs, 1e-12) {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 20})
	if err != nil {
		t.Error(err)
	}
}

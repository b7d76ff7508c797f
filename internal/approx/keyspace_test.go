package approx

import (
	"math"
	"testing"

	"approxhadoop/internal/mapreduce"
	"approxhadoop/internal/stats"
)

// feedClusters pushes n clusters into r, each the combined output of a
// map task that emitted what emit does.
func feedClusters(r *MultiStageReducer, n int, items, sampled int64, emit func(e mapreduce.Emitter)) {
	for task := 0; task < n; task++ {
		r.Consume(mapOut(task, items, sampled, true, emit))
	}
}

// emitTimes emits value n times under each key.
func emitTimes(n int, value float64, keys ...string) func(mapreduce.Emitter) {
	return func(e mapreduce.Emitter) {
		for _, k := range keys {
			for i := 0; i < n; i++ {
				e.Emit(k, value)
			}
		}
	}
}

func TestMissingKeyBound(t *testing.T) {
	r := NewMultiStageReducer(OpSum)
	view := mapreduce.EstimateView{TotalMaps: 20, Confidence: 0.95}
	feedClusters(r, 10, 1000, 100, emitTimes(50, 1, "common"))
	bound := r.MissingKeyBound(view)
	if bound.Value != 0 {
		t.Errorf("missing key value = %v, want 0", bound.Value)
	}
	if bound.Err <= 0 || math.IsInf(bound.Err, 1) {
		t.Fatalf("missing key bound = %v", bound.Err)
	}
	// The bound must be far smaller than the bounds on observed keys
	// (the paper: ±197 vs ±33,408 for WikiLength).
	common := r.Finalize(view)[0]
	if bound.Err >= common.Est.Value {
		t.Errorf("missing-key bound %v should be far below the common key's value %v",
			bound.Err, common.Est.Value)
	}
	// More sampled units tighten the bound.
	r2 := NewMultiStageReducer(OpSum)
	feedClusters(r2, 10, 1000, 1000, func(mapreduce.Emitter) {})
	b2 := r2.MissingKeyBound(view)
	if b2.Err >= bound.Err {
		t.Errorf("10x sampling should tighten missing-key bound: %v >= %v", b2.Err, bound.Err)
	}
}

func TestMissingKeyBoundNoSamples(t *testing.T) {
	r := NewMultiStageReducer(OpSum)
	b := r.MissingKeyBound(mapreduce.EstimateView{TotalMaps: 5, Confidence: 0.95})
	if !math.IsInf(b.Err, 1) {
		t.Errorf("no samples should give an infinite bound, got %v", b.Err)
	}
}

func TestDistinctKeysChao(t *testing.T) {
	// Population with 200 distinct keys, Zipf-ish unit frequencies;
	// sample a fraction of units and check the Chao estimate recovers
	// the order of magnitude and brackets the truth.
	rng := stats.NewRand(9)
	trueKeys := 200
	r := NewMultiStageReducer(OpSum)
	view := mapreduce.EstimateView{TotalMaps: 50, Dropped: 40, Confidence: 0.95}
	zipf := stats.NewZipf(rng, 1.3, uint64(trueKeys))
	for task := 0; task < 10; task++ {
		r.Consume(mapOut(task, 500, 120, true, func(e mapreduce.Emitter) {
			for i := 0; i < 120; i++ {
				k := zipf.Next()
				e.Emit("k"+string(rune('A'+k%26))+string(rune('a'+(k/26)%26))+string(rune('0'+(k/676)%10)), 1)
			}
		}))
	}
	est := r.DistinctKeys(view)
	observed := float64(len(r.table))
	if est.Value < observed {
		t.Errorf("Chao estimate %v cannot be below observed %v", est.Value, observed)
	}
	if est.Value > 3*float64(trueKeys) {
		t.Errorf("Chao estimate %v way above plausible key space %d", est.Value, trueKeys)
	}
}

func TestDistinctKeysExact(t *testing.T) {
	r := NewMultiStageReducer(OpSum)
	view := mapreduce.EstimateView{TotalMaps: 2, Confidence: 0.95}
	feedClusters(r, 2, 10, 10, emitTimes(1, 1, "a", "b"))
	est := r.DistinctKeys(view)
	if !stats.AlmostEqual(est.Value, 2, 1e-12) || est.Err != 0 {
		t.Errorf("exhaustive distinct count = %+v, want exactly 2", est)
	}
}

func TestDistinctKeysSaturated(t *testing.T) {
	// All keys seen many times: no singletons -> no extrapolation.
	r := NewMultiStageReducer(OpSum)
	view := mapreduce.EstimateView{TotalMaps: 10, Dropped: 8, Confidence: 0.95}
	feedClusters(r, 2, 100, 50, emitTimes(25, 1, "x", "y"))
	est := r.DistinctKeys(view)
	if !stats.AlmostEqual(est.Value, 2, 1e-12) || est.Err != 0 {
		t.Errorf("saturated distinct count = %+v", est)
	}
}

func TestThreeStageReducerMeanOverPairs(t *testing.T) {
	// Cluster A units produce 3 pairs each of value 2; cluster B units
	// produce 1 pair each of value 8. Mean over pairs = (3*2+1*8)/4 = 3.5
	// per unit-pair mix; with equal unit counts the pair-weighted mean
	// is (6+8)/(3+1) = 3.5.
	r := NewThreeStageReducer()
	view := mapreduce.EstimateView{TotalMaps: 2, Confidence: 0.95}
	r.Consume(mapOut(0, 10, 10, true, emitTimes(30, 2, "m"))) // 10 units x 3 pairs of value 2
	r.Consume(mapOut(1, 10, 10, true, emitTimes(10, 8, "m"))) // 10 units x 1 pair of value 8
	out := r.Finalize(view)
	if len(out) != 1 {
		t.Fatalf("outputs = %d", len(out))
	}
	if got := out[0].Est.Value; math.Abs(got-3.5) > 1e-9 {
		t.Errorf("pair mean = %v, want 3.5 (pair-weighted, not unit-weighted)", got)
	}
	if !out[0].Exact {
		t.Error("full consumption should be exact")
	}
}

func TestThreeStageReducerRawPairsAndEstimates(t *testing.T) {
	r := NewThreeStageReducer()
	view := mapreduce.EstimateView{TotalMaps: 4, Dropped: 0, Confidence: 0.95}
	r.Consume(mapOut(0, 5, 3, false, emitValues("m", 1, 3)))
	r.Consume(mapOut(1, 5, 3, false, emitValues("m", 2)))
	out := r.Estimates(view)
	if len(out) != 1 || out[0].Exact {
		t.Fatalf("estimates = %+v", out)
	}
	if got := out[0].Est.Value; math.Abs(got-2) > 1e-9 {
		t.Errorf("pair mean = %v, want 2", got)
	}
}

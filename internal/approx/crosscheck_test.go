package approx

import (
	"testing"

	"approxhadoop/internal/mapreduce"
	"approxhadoop/internal/stats"
)

// TestReducerMatchesTwoStageTheory cross-checks the incremental
// MultiStageReducer against the reference stats.TwoStage estimator on
// identical cluster data: the reducer is an O(keys)-memory rewrite of
// the same math and must agree to floating-point precision.
func TestReducerMatchesTwoStageTheory(t *testing.T) {
	rng := stats.NewRand(31)
	const totalMaps = 12
	view := mapreduce.EstimateView{TotalMaps: totalMaps, Dropped: 0, Confidence: 0.95}

	for _, op := range []AggOp{OpSum, OpMean} {
		r := NewMultiStageReducer(op)
		ref := stats.TwoStage{N: totalMaps}
		for task := 0; task < 7; task++ {
			M := int64(80 + rng.Intn(40))
			m := int64(20 + rng.Intn(int(M)-20))
			var rs stats.RunningStat
			r.Consume(mapOut(task, M, m, true, func(e mapreduce.Emitter) {
				for j := int64(0); j < m; j++ {
					if rng.Float64() < 0.7 { // some units emit nothing
						v := rng.Float64() * 10
						rs.Add(v)
						e.Emit("k", v)
					}
				}
			}))
			ref.Clusters = append(ref.Clusters, stats.ClusterSample{M: M, Sam: m, Stat: rs})
		}
		got := r.Finalize(view)
		if len(got) != 1 {
			t.Fatalf("op %v: outputs = %d", op, len(got))
		}
		var want stats.Estimate
		if op == OpMean {
			want = ref.Mean(0.95)
		} else {
			want = ref.Sum(0.95)
		}
		g := got[0].Est
		if diff := relDiff(g.Value, want.Value); diff > 1e-9 {
			t.Errorf("op %v: value %v vs reference %v", op, g.Value, want.Value)
		}
		if diff := relDiff(g.Err, want.Err); diff > 1e-9 {
			t.Errorf("op %v: err %v vs reference %v", op, g.Err, want.Err)
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

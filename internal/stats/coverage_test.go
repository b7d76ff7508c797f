package stats

import (
	"math"
	"testing"
)

func TestTwoStageCount(t *testing.T) {
	ts := TwoStage{N: 4}
	for i := 0; i < 4; i++ {
		cs := ClusterSample{M: 10, Sam: 10}
		for j := 0; j < 3; j++ { // 3 matching units per cluster
			cs.Stat.Add(1)
		}
		ts.Clusters = append(ts.Clusters, cs)
	}
	est := ts.Sum(0.95)
	if !AlmostEqual(est.Value, 12, 1e-12) || est.Err != 0 {
		t.Errorf("Sum = %+v, want exactly 12", est)
	}
}

func TestTwoStageMeanDegenerate(t *testing.T) {
	// No clusters.
	if est := (TwoStage{N: 3}).Mean(0.95); !math.IsInf(est.Err, 1) {
		t.Errorf("empty mean should be unbounded: %+v", est)
	}
	// All-empty clusters: zero denominator.
	ts := TwoStage{N: 3, Clusters: []ClusterSample{{M: 0, Sam: 0}, {M: 0, Sam: 0}}}
	if est := ts.Mean(0.95); !math.IsInf(est.Err, 1) {
		t.Errorf("zero-size mean should be unbounded: %+v", est)
	}
	// Single partially-sampled cluster: no variance information.
	one := TwoStage{N: 5, Clusters: []ClusterSample{{M: 10, Sam: 5, Stat: RunningStat{Count: 5, Sum: 10, SumSq: 25}}}}
	if est := one.Mean(0.95); !math.IsInf(est.Err, 1) {
		t.Errorf("single-cluster mean should be unbounded: %+v", est)
	}
}

func TestTwoStageRatioDegenerate(t *testing.T) {
	if est := TwoStageRatio(5, nil, 0.95); !math.IsInf(est.Err, 1) {
		t.Errorf("empty ratio: %+v", est)
	}
	// Zero denominator total.
	cl := []BivariateCluster{{M: 10, Sam: 10}, {M: 10, Sam: 10}}
	if est := TwoStageRatio(5, cl, 0.95); !math.IsInf(est.Err, 1) {
		t.Errorf("zero-denominator ratio: %+v", est)
	}
	// Single exhaustive cluster: exact.
	var y, x RunningStat
	y.Add(4)
	y.Add(6)
	x.Add(1)
	x.Add(1)
	exact := []BivariateCluster{{M: 2, Sam: 2, Y: y, X: x, SumXY: 10}}
	est := TwoStageRatio(1, exact, 0.95)
	if !AlmostEqual(est.Value, 5, 1e-12) || est.Err != 0 {
		t.Errorf("exhaustive single-cluster ratio = %+v, want exactly 5", est)
	}
	// Single non-exhaustive cluster: unbounded.
	partial := []BivariateCluster{{M: 4, Sam: 2, Y: y, X: x, SumXY: 10}}
	if got := TwoStageRatio(3, partial, 0.95); !math.IsInf(got.Err, 1) {
		t.Errorf("partial single-cluster ratio should be unbounded: %+v", got)
	}
}

func TestWithinVarTermBoundaries(t *testing.T) {
	// Fully enumerated cluster: zero within-variance.
	var full ClusterSums
	full.Add(5, 5, RunningStat{Count: 5, Sum: 10, SumSq: 30})
	if full.within != 0 || !AlmostEqual(full.tau, 10, 0) {
		t.Errorf("exhaustive cluster: %+v", full)
	}
	// Single sampled unit: no variance information.
	var single ClusterSums
	single.Add(5, 1, RunningStat{Count: 1, Sum: 2, SumSq: 4})
	if single.within != 0 || !AlmostEqual(single.tau, 10, 0) {
		t.Errorf("single-unit cluster: %+v", single)
	}
	// A cluster that sampled nothing adds nothing.
	var empty ClusterSums
	empty.Add(5, 0, RunningStat{})
	if empty != (ClusterSums{}) {
		t.Errorf("empty cluster: %+v", empty)
	}
}

func TestTQuantileExtremes(t *testing.T) {
	if got := TQuantile(0, 5); !math.IsInf(got, -1) {
		t.Errorf("p=0 should be -inf: %v", got)
	}
	if got := TQuantile(1, 5); !math.IsInf(got, 1) {
		t.Errorf("p=1 should be +inf: %v", got)
	}
	if !math.IsNaN(TQuantile(0.5, -1)) {
		t.Error("negative df should be NaN")
	}
	if !math.IsNaN(TQuantile(math.NaN(), 5)) {
		t.Error("NaN p should be NaN")
	}
	// Deep tails stay finite and ordered.
	q1 := TQuantile(0.9999, 2)
	q2 := TQuantile(0.99999, 2)
	if !(q2 > q1 && q1 > 0 && !math.IsInf(q2, 1)) {
		t.Errorf("tail quantiles: %v %v", q1, q2)
	}
}

func TestParetoShape(t *testing.T) {
	r := NewRand(3)
	over := 0
	const n = 20000
	for i := 0; i < n; i++ {
		if Pareto(r, 1, 2) > 2 {
			over++
		}
	}
	// P(X > 2) = (1/2)^2 = 0.25 for alpha=2, xm=1.
	frac := float64(over) / n
	if frac < 0.2 || frac > 0.3 {
		t.Errorf("Pareto tail fraction %.3f, want ~0.25", frac)
	}
}

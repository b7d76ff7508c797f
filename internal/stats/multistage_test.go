package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// makePopulation builds a synthetic clustered population and returns the
// per-cluster unit values plus the true total.
func makePopulation(r *rand.Rand, nClusters, unitsPer int) ([][]float64, float64) {
	pop := make([][]float64, nClusters)
	total := 0.0
	for i := range pop {
		base := r.Float64() * 10 // cluster-level locality
		units := make([]float64, unitsPer)
		for j := range units {
			v := base + r.Float64()*5
			if r.Float64() < 0.3 {
				v = 0 // some units produce nothing for this key
			}
			units[j] = v
			total += v
		}
		pop[i] = units
	}
	return pop, total
}

// drawTwoStage samples n clusters and m units per cluster.
func drawTwoStage(r *rand.Rand, pop [][]float64, n, m int) TwoStage {
	ts := TwoStage{N: int64(len(pop))}
	for _, ci := range SampleWithoutReplacement(r, len(pop), n) {
		cluster := pop[ci]
		cs := ClusterSample{M: int64(len(cluster)), Sam: int64(m)}
		for _, ui := range SampleWithoutReplacement(r, len(cluster), m) {
			if cluster[ui] != 0 {
				cs.Stat.Add(cluster[ui])
			}
		}
		ts.Clusters = append(ts.Clusters, cs)
	}
	return ts
}

func TestTwoStageExhaustiveIsExact(t *testing.T) {
	r := NewRand(1)
	pop, total := makePopulation(r, 8, 50)
	ts := TwoStage{N: 8}
	for _, cluster := range pop {
		cs := ClusterSample{M: int64(len(cluster)), Sam: int64(len(cluster))}
		for _, v := range cluster {
			if v != 0 {
				cs.Stat.Add(v)
			}
		}
		ts.Clusters = append(ts.Clusters, cs)
	}
	est := ts.Sum(0.95)
	if !AlmostEqual(est.Value, total, 1e-9) {
		t.Errorf("exhaustive sum %v != true %v", est.Value, total)
	}
	if est.Err != 0 {
		t.Errorf("exhaustive sample should have zero error bound, got %v", est.Err)
	}
}

func TestTwoStageCoverage(t *testing.T) {
	// The 95% interval should contain the true total in roughly 95% of
	// repeated samples. With 200 trials, seeing fewer than 85% hits
	// would indicate broken variance math.
	r := NewRand(42)
	pop, total := makePopulation(r, 40, 100)
	hits, trials := 0, 200
	for i := 0; i < trials; i++ {
		ts := drawTwoStage(r, pop, 12, 30)
		est := ts.Sum(0.95)
		if est.Lo() <= total && total <= est.Hi() {
			hits++
		}
	}
	if frac := float64(hits) / float64(trials); frac < 0.85 {
		t.Errorf("coverage %.2f too low (want >= 0.85)", frac)
	}
}

func TestTwoStageUnbiasedish(t *testing.T) {
	r := NewRand(7)
	pop, total := makePopulation(r, 30, 80)
	sum := 0.0
	trials := 300
	for i := 0; i < trials; i++ {
		ts := drawTwoStage(r, pop, 10, 20)
		sum += ts.Sum(0.95).Value
	}
	avg := sum / float64(trials)
	if math.Abs(avg-total)/total > 0.05 {
		t.Errorf("estimator mean %v deviates from true total %v by > 5%%", avg, total)
	}
}

func TestTwoStageMoreSamplingTightensBounds(t *testing.T) {
	r := NewRand(3)
	pop, _ := makePopulation(r, 40, 100)
	loose := drawTwoStage(NewRand(10), pop, 8, 10).Sum(0.95)
	tight := drawTwoStage(NewRand(10), pop, 30, 80).Sum(0.95)
	if tight.Err >= loose.Err {
		t.Errorf("larger sample should tighten bounds: tight %v vs loose %v", tight.Err, loose.Err)
	}
}

func TestTwoStageDegenerate(t *testing.T) {
	ts := TwoStage{N: 10}
	est := ts.Sum(0.95)
	if !math.IsInf(est.Err, 1) {
		t.Error("no clusters should give infinite error")
	}
	ts.Clusters = []ClusterSample{{M: 100, Sam: 10, Stat: RunningStat{Count: 5, Sum: 50, SumSq: 600}}}
	est = ts.Sum(0.95)
	// value = N/n * M * mean = 10 * 100 * 5 = 5000
	if !AlmostEqual(est.Value, 5000, 1e-9) {
		t.Errorf("single cluster estimate %v, want 5000", est.Value)
	}
	if !math.IsInf(est.Err, 1) {
		t.Error("single cluster should give infinite error bound")
	}
}

func TestTwoStageMean(t *testing.T) {
	r := NewRand(11)
	pop, total := makePopulation(r, 30, 60)
	trueMean := total / float64(30*60)
	hits, trials := 0, 150
	for i := 0; i < trials; i++ {
		ts := drawTwoStage(r, pop, 12, 25)
		est := ts.Mean(0.95)
		if est.Lo() <= trueMean && trueMean <= est.Hi() {
			hits++
		}
	}
	if frac := float64(hits) / float64(trials); frac < 0.85 {
		t.Errorf("mean coverage %.2f too low", frac)
	}
}

func TestTwoStageMeanExhaustive(t *testing.T) {
	ts := TwoStage{N: 2}
	for i := 0; i < 2; i++ {
		cs := ClusterSample{M: 3, Sam: 3}
		cs.Stat.Add(1)
		cs.Stat.Add(2)
		cs.Stat.Add(3)
		ts.Clusters = append(ts.Clusters, cs)
	}
	est := ts.Mean(0.95)
	if !AlmostEqual(est.Value, 2, 1e-12) || est.Err != 0 {
		t.Errorf("exhaustive mean = %v ± %v, want 2 ± 0", est.Value, est.Err)
	}
}

func TestTwoStageRatioRecoverAverage(t *testing.T) {
	// Average request size: y = bytes, x = 1 per request.
	r := NewRand(5)
	N := 20
	var clusters []BivariateCluster
	trueY, trueX := 0.0, 0.0
	for i := 0; i < N; i++ {
		c := BivariateCluster{M: 50, Sam: 50}
		for j := 0; j < 50; j++ {
			y := 100 + r.Float64()*50
			c.Y.Add(y)
			c.X.Add(1)
			c.SumXY += y
			trueY += y
			trueX++
		}
		clusters = append(clusters, c)
	}
	est := TwoStageRatio(int64(N), clusters, 0.95)
	if !AlmostEqual(est.Value, trueY/trueX, 1e-9) {
		t.Errorf("ratio %v, want %v", est.Value, trueY/trueX)
	}
}

func TestTwoStageRatioPartialSampleCoverage(t *testing.T) {
	r := NewRand(17)
	N := 40
	type unit struct{ y, x float64 }
	pop := make([][]unit, N)
	var ty, tx float64
	for i := range pop {
		pop[i] = make([]unit, 60)
		base := 50 + r.Float64()*20
		for j := range pop[i] {
			y := base + r.Float64()*30
			pop[i][j] = unit{y: y, x: 1}
			ty += y
			tx++
		}
	}
	trueR := ty / tx
	hits, trials := 0, 120
	for trial := 0; trial < trials; trial++ {
		var clusters []BivariateCluster
		for _, ci := range SampleWithoutReplacement(r, N, 12) {
			c := BivariateCluster{M: 60, Sam: 20}
			for _, ui := range SampleWithoutReplacement(r, 60, 20) {
				u := pop[ci][ui]
				c.Y.Add(u.y)
				c.X.Add(u.x)
				c.SumXY += u.x * u.y
			}
			clusters = append(clusters, c)
		}
		est := TwoStageRatio(int64(N), clusters, 0.95)
		if est.Lo() <= trueR && trueR <= est.Hi() {
			hits++
		}
	}
	if frac := float64(hits) / float64(trials); frac < 0.85 {
		t.Errorf("ratio coverage %.2f too low", frac)
	}
}

func TestEstimateHelpers(t *testing.T) {
	e := Estimate{Value: 100, Err: 5, Conf: 0.95}
	if !AlmostEqual(e.Lo(), 95, 1e-12) || !AlmostEqual(e.Hi(), 105, 1e-12) {
		t.Error("Lo/Hi wrong")
	}
	if !AlmostEqual(e.RelErr(), 0.05, 1e-12) {
		t.Errorf("RelErr = %v", e.RelErr())
	}
	zero := Estimate{Value: 0, Err: 1}
	if !math.IsInf(zero.RelErr(), 1) {
		t.Error("zero value with error should have infinite RelErr")
	}
	exact := Estimate{}
	if exact.RelErr() != 0 {
		t.Error("zero/zero RelErr should be 0")
	}
	if e.String() == "" {
		t.Error("String should be non-empty")
	}
}

func TestEstimatePropertyIntervalContainsValue(t *testing.T) {
	err := quick.Check(func(v, e float64) bool {
		if math.IsNaN(v) || math.IsNaN(e) || math.IsInf(v, 0) || math.IsInf(e, 0) {
			return true
		}
		est := Estimate{Value: v, Err: math.Abs(e)}
		return est.Lo() <= est.Value && est.Value <= est.Hi()
	}, nil)
	if err != nil {
		t.Error(err)
	}
}

func TestThreeStageMean(t *testing.T) {
	// Each unit produces 4 pairs with value ~ 2; mean over pairs ~ 2.
	var clusters []ThreeStageCluster
	for i := 0; i < 10; i++ {
		c := ThreeStageCluster{M: 20, Sam: 20, G: 80}
		for j := 0; j < 80; j++ {
			c.Stat.Add(2)
		}
		clusters = append(clusters, c)
	}
	est := ThreeStageMean(10, clusters, 0.95)
	if !AlmostEqual(est.Value, 2, 1e-9) {
		t.Errorf("three-stage mean %v, want 2", est.Value)
	}
}

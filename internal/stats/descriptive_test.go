package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestMeanVariance(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Mean(xs); !AlmostEqual(got, 5, 1e-12) {
		t.Errorf("Mean = %v, want 5", got)
	}
	if got := Variance(xs); !AlmostEqual(got, 32.0/7, 1e-12) {
		t.Errorf("Variance = %v, want %v", got, 32.0/7)
	}
	if got := StdDev(xs); !AlmostEqual(got, math.Sqrt(32.0/7), 1e-12) {
		t.Errorf("StdDev = %v", got)
	}
}

func TestMeanEmpty(t *testing.T) {
	if !math.IsNaN(Mean(nil)) {
		t.Error("Mean(nil) should be NaN")
	}
	if Variance([]float64{3}) != 0 {
		t.Error("Variance of single element should be 0")
	}
}

func TestMinMaxAndSum(t *testing.T) {
	lo, hi := MinMax([]float64{3, -1, 7, 2})
	if !AlmostEqual(lo, -1, 1e-12) || !AlmostEqual(hi, 7, 1e-12) {
		t.Errorf("MinMax = %v,%v", lo, hi)
	}
	defer func() {
		if recover() == nil {
			t.Error("MinMax(empty) should panic")
		}
	}()
	MinMax(nil)
}

func TestPercentile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	if got := Percentile(xs, 50); !AlmostEqual(got, 3, 1e-12) {
		t.Errorf("P50 = %v", got)
	}
	if got := Percentile(xs, 0); !AlmostEqual(got, 1, 1e-12) {
		t.Errorf("P0 = %v", got)
	}
	if got := Percentile(xs, 100); !AlmostEqual(got, 5, 1e-12) {
		t.Errorf("P100 = %v", got)
	}
	if got := Percentile(xs, 25); !AlmostEqual(got, 2, 1e-12) {
		t.Errorf("P25 = %v", got)
	}
	if !math.IsNaN(Percentile(nil, 50)) {
		t.Error("empty percentile should be NaN")
	}
}

func TestRunningStatMatchesDirect(t *testing.T) {
	err := quick.Check(func(vals []float64, extraZeros uint8) bool {
		var rs RunningStat
		sample := make([]float64, 0, len(vals)+int(extraZeros))
		for _, v := range vals {
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e6 {
				continue
			}
			rs.Add(v)
			sample = append(sample, v)
		}
		for i := 0; i < int(extraZeros); i++ {
			sample = append(sample, 0)
		}
		n := int64(len(sample))
		if n < 2 {
			return true
		}
		wantMean := Mean(sample)
		wantVar := Variance(sample)
		return AlmostEqual(rs.MeanOverN(n), wantMean, 1e-9) &&
			AlmostEqual(rs.VarianceOverN(n), wantVar, 1e-6)
	}, nil)
	if err != nil {
		t.Error(err)
	}
}

func TestVarianceOverNGuards(t *testing.T) {
	var rs RunningStat
	rs.Add(5)
	if rs.VarianceOverN(1) != 0 {
		t.Error("n<2 variance should be 0")
	}
	if rs.MeanOverN(0) != 0 {
		t.Error("n=0 mean should be 0")
	}
}

// MinMax returns the minimum and maximum of xs. It panics on an empty
// slice, which would indicate a logic error in the caller.
func MinMax(xs []float64) (minV, maxV float64) {
	if len(xs) == 0 {
		panic("stats: MinMax of empty slice")
	}
	minV, maxV = xs[0], xs[0]
	for _, x := range xs[1:] {
		if x < minV {
			minV = x
		}
		if x > maxV {
			maxV = x
		}
	}
	return minV, maxV
}

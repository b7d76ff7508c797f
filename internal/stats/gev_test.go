package stats

import (
	"math"
	"testing"
	"testing/quick"
)

// drawGEV samples from a GEV via inverse transform.
func drawGEV(g GEV, n int, seed int64) []float64 {
	r := NewRand(seed)
	out := make([]float64, n)
	for i := range out {
		u := r.Float64()
		//lint:ignore nofloateq rejection-sample the exact endpoints only; every interior value is valid
		for u == 0 || u == 1 {
			u = r.Float64()
		}
		out[i] = g.Quantile(u)
	}
	return out
}

func TestGEVQuantileInvertsCDF(t *testing.T) {
	err := quick.Check(func(muS, sigS, xiS, pS uint32) bool {
		g := GEV{
			Mu:    float64(muS%200) - 100,
			Sigma: 0.5 + float64(sigS%100)/10,
			Xi:    float64(xiS%100)/100 - 0.5,
		}
		p := (float64(pS%9998) + 1) / 10000
		x := g.Quantile(p)
		return AlmostEqual(g.CDF(x), p, 1e-9)
	}, nil)
	if err != nil {
		t.Error(err)
	}
}

func TestGEVGumbelCase(t *testing.T) {
	g := GEV{Mu: 0, Sigma: 1, Xi: 0}
	// Gumbel CDF at 0 is exp(-1).
	if got, want := g.CDF(0), math.Exp(-1); !AlmostEqual(got, want, 1e-12) {
		t.Errorf("Gumbel CDF(0) = %v, want %v", got, want)
	}
	if got := g.Quantile(math.Exp(-1)); !AlmostEqual(got, 0, 1e-9) {
		t.Errorf("Gumbel quantile at exp(-1) = %v, want 0", got)
	}
}

func TestGEVSupport(t *testing.T) {
	g := GEV{Mu: 0, Sigma: 1, Xi: 0.5} // lower endpoint at -2
	if got := g.CDF(-3); got != 0 {
		t.Errorf("below support CDF = %v", got)
	}
	if !math.IsInf(g.LogPDF(-3), -1) {
		t.Error("below support LogPDF should be -Inf")
	}
	h := GEV{Mu: 0, Sigma: 1, Xi: -0.5} // upper endpoint at 2
	if got := h.CDF(3); !AlmostEqual(got, 1, 1e-12) {
		t.Errorf("above support CDF = %v", got)
	}
}

func TestFitGEVMaximaRecoversParameters(t *testing.T) {
	truth := GEV{Mu: 10, Sigma: 2, Xi: 0.1}
	sample := drawGEV(truth, 2000, 99)
	fit, err := FitGEVMaxima(sample)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fit.Dist.Mu-truth.Mu) > 0.3 {
		t.Errorf("Mu = %v, want ~%v", fit.Dist.Mu, truth.Mu)
	}
	if math.Abs(fit.Dist.Sigma-truth.Sigma) > 0.3 {
		t.Errorf("Sigma = %v, want ~%v", fit.Dist.Sigma, truth.Sigma)
	}
	if math.Abs(fit.Dist.Xi-truth.Xi) > 0.1 {
		t.Errorf("Xi = %v, want ~%v", fit.Dist.Xi, truth.Xi)
	}
	if !fit.HessOK {
		t.Error("information matrix should be available for a clean fit")
	}
}

func TestFitGEVMinima(t *testing.T) {
	// Minima of a process: negate a max-GEV.
	truth := GEV{Mu: 50, Sigma: 3, Xi: 0.05}
	maxima := drawGEV(truth, 1000, 21)
	minima := make([]float64, len(maxima))
	for i, v := range maxima {
		minima[i] = -v
	}
	fit, err := FitGEVMinima(minima)
	if err != nil {
		t.Fatal(err)
	}
	if !fit.ForMin {
		t.Error("ForMin should be set")
	}
	est := fit.ExtremeEstimate(0.01, 0.95)
	// The 1%-tail estimate should sit in the lower tail of the sample:
	// at or below the 3rd percentile but not absurdly below the minimum.
	lo, _ := MinMax(minima)
	if est.Value > Percentile(minima, 3) {
		t.Errorf("estimated min %v above the 3rd percentile %v", est.Value, Percentile(minima, 3))
	}
	if est.Value < lo-20*truth.Sigma {
		t.Errorf("estimated min %v implausibly far below sample min %v", est.Value, lo)
	}
}

func TestFitGEVTooSmall(t *testing.T) {
	if _, err := FitGEVMaxima([]float64{1, 2, 3}); err != ErrSampleTooSmall {
		t.Errorf("want ErrSampleTooSmall, got %v", err)
	}
}

func TestExtremeEstimateBoundsShrinkWithSample(t *testing.T) {
	truth := GEV{Mu: 0, Sigma: 1, Xi: 0.1}
	small, err := FitGEVMaxima(drawGEV(truth, 30, 5))
	if err != nil {
		t.Fatal(err)
	}
	large, err := FitGEVMaxima(drawGEV(truth, 3000, 5))
	if err != nil {
		t.Fatal(err)
	}
	es, el := small.ExtremeEstimate(0.01, 0.95), large.ExtremeEstimate(0.01, 0.95)
	if el.Err >= es.Err {
		t.Errorf("larger sample should shrink CI: small %v, large %v", es.Err, el.Err)
	}
}

func TestNelderMeadQuadratic(t *testing.T) {
	f := func(x []float64) float64 {
		return (x[0]-3)*(x[0]-3) + 2*(x[1]+1)*(x[1]+1) + 5
	}
	x, v := NelderMead(f, []float64{0, 0}, 0.5, 500)
	if math.Abs(x[0]-3) > 1e-4 || math.Abs(x[1]+1) > 1e-4 {
		t.Errorf("minimum at %v, want (3,-1)", x)
	}
	if math.Abs(v-5) > 1e-6 {
		t.Errorf("value %v, want 5", v)
	}
}

func TestNelderMeadRosenbrock(t *testing.T) {
	f := func(x []float64) float64 {
		a := 1 - x[0]
		b := x[1] - x[0]*x[0]
		return a*a + 100*b*b
	}
	x, _ := NelderMead(f, []float64{-1.2, 1}, 0.5, 5000)
	if math.Abs(x[0]-1) > 1e-2 || math.Abs(x[1]-1) > 1e-2 {
		t.Errorf("Rosenbrock minimum at %v, want (1,1)", x)
	}
}

func TestNelderMeadEmpty(t *testing.T) {
	called := false
	_, v := NelderMead(func([]float64) float64 { called = true; return 7 }, nil, 0.1, 10)
	if !called || !AlmostEqual(v, 7, 1e-12) {
		t.Error("empty-dimension optimization should just evaluate f")
	}
}

func TestSolveLinear(t *testing.T) {
	a := [][]float64{{2, 1}, {1, 3}}
	x, ok := SolveLinear(a, []float64{5, 10})
	if !ok {
		t.Fatal("solve failed")
	}
	if !AlmostEqual(x[0], 1, 1e-12) || !AlmostEqual(x[1], 3, 1e-12) {
		t.Errorf("x = %v, want [1 3]", x)
	}
	if _, ok := SolveLinear([][]float64{{1, 1}, {2, 2}}, []float64{1, 2}); ok {
		t.Error("singular system should fail")
	}
}

func TestInvertMatrix(t *testing.T) {
	a := [][]float64{{4, 7}, {2, 6}}
	inv, ok := InvertMatrix(a)
	if !ok {
		t.Fatal("invert failed")
	}
	want := [][]float64{{0.6, -0.7}, {-0.2, 0.4}}
	for i := range want {
		for j := range want[i] {
			if !AlmostEqual(inv[i][j], want[i][j], 1e-12) {
				t.Errorf("inv[%d][%d] = %v, want %v", i, j, inv[i][j], want[i][j])
			}
		}
	}
	if _, ok := InvertMatrix([][]float64{{0, 0}, {0, 0}}); ok {
		t.Error("singular inversion should fail")
	}
}

func TestRNGHelpers(t *testing.T) {
	r := NewRand(1)
	z := NewZipf(r, 1.2, 100)
	counts := map[uint64]int{}
	for i := 0; i < 10000; i++ {
		k := z.Next()
		if k < 1 || k > 100 {
			t.Fatalf("zipf rank %d out of range", k)
		}
		counts[k]++
	}
	if counts[1] <= counts[50] {
		t.Error("rank 1 should dominate rank 50 under Zipf")
	}
	// Clamped exponent should not panic.
	clamped, empty := NewZipf(r, 0.5, 10), NewZipf(r, 2, 0)
	_, _ = clamped.Next(), empty.Next()

	if v := Pareto(r, 10, 2); v < 10 {
		t.Errorf("Pareto below xm: %v", v)
	}
	s := SampleWithoutReplacement(r, 10, 4)
	if len(s) != 4 {
		t.Errorf("sample size %d", len(s))
	}
	seen := map[int]bool{}
	for _, v := range s {
		if v < 0 || v >= 10 || seen[v] {
			t.Fatalf("bad sample %v", s)
		}
		seen[v] = true
	}
	if got := SampleWithoutReplacement(r, 3, 10); len(got) != 3 {
		t.Error("k>n should return n items")
	}
}

func TestDeterministicRand(t *testing.T) {
	a, b := NewRand(123), NewRand(123)
	for i := 0; i < 100; i++ {
		if a.Int63() != b.Int63() {
			t.Fatal("same seed must give same stream")
		}
	}
}

// CDF returns P(X <= x).
func (g GEV) CDF(x float64) float64 {
	s := (x - g.Mu) / g.Sigma
	if g.Xi == 0 {
		return math.Exp(-math.Exp(-s))
	}
	t := 1 + g.Xi*s
	if t <= 0 {
		if g.Xi > 0 {
			return 0 // below the lower endpoint
		}
		return 1 // above the upper endpoint
	}
	return math.Exp(-math.Pow(t, -1/g.Xi))
}

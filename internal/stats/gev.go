package stats

import (
	"errors"
	"math"
)

// GEV is a Generalized Extreme Value distribution for block MAXIMA with
// location Mu, scale Sigma (> 0) and shape Xi. The Fisher-Tippett-
// Gnedenko theorem states the maximum of n IID variables converges (if
// it converges) to this family. Minima are handled by negation: see
// FitGEVMinima.
type GEV struct {
	Mu    float64
	Sigma float64
	Xi    float64
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

// Quantile returns the value x with CDF(x) = p for p in (0, 1).
func (g GEV) Quantile(p float64) float64 {
	if p <= 0 || p >= 1 {
		return math.NaN()
	}
	l := -math.Log(p)
	if g.Xi == 0 {
		return g.Mu - g.Sigma*math.Log(l)
	}
	return g.Mu + g.Sigma/g.Xi*(math.Pow(l, -g.Xi)-1)
}

// LogPDF returns the log density at x, or -Inf outside the support.
func (g GEV) LogPDF(x float64) float64 {
	if g.Sigma <= 0 {
		return math.Inf(-1)
	}
	s := (x - g.Mu) / g.Sigma
	if g.Xi == 0 {
		return -math.Log(g.Sigma) - s - math.Exp(-s)
	}
	t := 1 + g.Xi*s
	if t <= 0 {
		return math.Inf(-1)
	}
	lt := math.Log(t)
	return -math.Log(g.Sigma) - (1+1/g.Xi)*lt - math.Exp(-lt/g.Xi)
}

// NLL returns the negative log likelihood of the sample under g.
func (g GEV) NLL(sample []float64) float64 {
	nll := 0.0
	for _, x := range sample {
		lp := g.LogPDF(x)
		if math.IsInf(lp, -1) {
			return math.Inf(1)
		}
		nll -= lp
	}
	return nll
}

// GEVFit is the result of a maximum-likelihood fit, including standard
// errors derived from the observed information matrix (inverse Hessian
// of the negative log likelihood at the optimum).
type GEVFit struct {
	Dist   GEV
	SE     [3]float64 // standard errors for (Mu, Sigma, Xi); zero if unavailable
	N      int        // sample size used
	NLL    float64    // negative log likelihood at the optimum
	ForMin bool       // fitted on negated data to model minima
	HessOK bool       // whether the information matrix was invertible
	Cov    [3][3]float64
}

// ErrSampleTooSmall indicates too few block extrema to fit a GEV.
var ErrSampleTooSmall = errors.New("stats: need at least 5 block extrema to fit a GEV")

// FitGEVMaxima fits a GEV to a sample of block maxima by maximum
// likelihood (Nelder-Mead on (mu, log sigma, xi)).
func FitGEVMaxima(sample []float64) (GEVFit, error) {
	if len(sample) < 5 {
		return GEVFit{}, ErrSampleTooSmall
	}
	mean := Mean(sample)
	sd := StdDev(sample)
	if sd == 0 {
		sd = math.Max(1e-9, math.Abs(mean)*1e-9+1e-12)
	}
	// Method-of-moments start for the Gumbel case.
	sigma0 := sd * math.Sqrt(6) / math.Pi
	mu0 := mean - 0.5772156649015329*sigma0
	obj := func(p []float64) float64 {
		g := GEV{Mu: p[0], Sigma: math.Exp(p[1]), Xi: p[2]}
		return g.NLL(sample)
	}
	best, bestV := []float64{mu0, math.Log(sigma0), 0.1}, math.Inf(1)
	// Multi-start over a few shape values for robustness; the NLL
	// surface can have a boundary ridge in xi.
	for _, xi0 := range []float64{-0.2, 0.0, 0.1, 0.4} {
		x, v := NelderMead(obj, []float64{mu0, math.Log(sigma0), xi0}, 0.1, 800)
		if v < bestV {
			best, bestV = x, v
		}
	}
	fit := GEVFit{
		Dist: GEV{Mu: best[0], Sigma: math.Exp(best[1]), Xi: best[2]},
		N:    len(sample),
		NLL:  bestV,
	}
	fit.computeSE(sample)
	return fit, nil
}

// FitGEVMinima fits a GEV model for block MINIMA using the standard
// negation trick: min(X) = -max(-X). Quantile helpers on the returned
// fit account for the sign flip.
func FitGEVMinima(sample []float64) (GEVFit, error) {
	neg := make([]float64, len(sample))
	for i, x := range sample {
		neg[i] = -x
	}
	fit, err := FitGEVMaxima(neg)
	if err != nil {
		return fit, err
	}
	fit.ForMin = true
	return fit, nil
}

// computeSE fills in the observed-information standard errors via a
// central-difference Hessian of the NLL in the natural parameters.
func (f *GEVFit) computeSE(sample []float64) {
	p := [3]float64{f.Dist.Mu, f.Dist.Sigma, f.Dist.Xi}
	nll := func(q [3]float64) float64 {
		if q[1] <= 0 {
			return math.Inf(1)
		}
		return GEV{Mu: q[0], Sigma: q[1], Xi: q[2]}.NLL(sample)
	}
	h := [3]float64{}
	for i := 0; i < 3; i++ {
		h[i] = 1e-4 * (math.Abs(p[i]) + 1e-3)
	}
	hess := make([][]float64, 3)
	for i := range hess {
		hess[i] = make([]float64, 3)
	}
	f0 := nll(p)
	if math.IsInf(f0, 1) {
		return
	}
	for i := 0; i < 3; i++ {
		for j := i; j < 3; j++ {
			var v float64
			if i == j {
				pp, pm := p, p
				pp[i] += h[i]
				pm[i] -= h[i]
				v = (nll(pp) - 2*f0 + nll(pm)) / (h[i] * h[i])
			} else {
				ppp, ppm, pmp, pmm := p, p, p, p
				ppp[i] += h[i]
				ppp[j] += h[j]
				ppm[i] += h[i]
				ppm[j] -= h[j]
				pmp[i] -= h[i]
				pmp[j] += h[j]
				pmm[i] -= h[i]
				pmm[j] -= h[j]
				v = (nll(ppp) - nll(ppm) - nll(pmp) + nll(pmm)) / (4 * h[i] * h[j])
			}
			if math.IsInf(v, 0) || math.IsNaN(v) {
				return
			}
			hess[i][j] = v
			hess[j][i] = v
		}
	}
	inv, ok := InvertMatrix(hess)
	if !ok {
		return
	}
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			f.Cov[i][j] = inv[i][j]
		}
	}
	for i := 0; i < 3; i++ {
		if inv[i][i] > 0 {
			f.SE[i] = math.Sqrt(inv[i][i])
		}
	}
	f.HessOK = true
}

// ExtremeEstimate estimates the population extreme (minimum if the fit
// is ForMin, maximum otherwise) as the GEV quantile at tail probability
// p (e.g. 0.01 for the 1st percentile, Section 3.2), with a
// delta-method confidence interval at the given level.
func (f GEVFit) ExtremeEstimate(p, confidence float64) Estimate {
	if p <= 0 || p >= 1 {
		p = 0.01
	}
	// For maxima we look at the upper tail quantile 1-p; for minima the
	// negated fit's upper tail maps back to the lower tail.
	q := f.Dist.Quantile(1 - p)
	grad := f.quantileGradient(1 - p)
	variance := 0.0
	if f.HessOK {
		for i := 0; i < 3; i++ {
			for j := 0; j < 3; j++ {
				variance += grad[i] * f.Cov[i][j] * grad[j]
			}
		}
	}
	if variance < 0 || !f.HessOK {
		variance = math.Inf(1)
	}
	se := math.Sqrt(variance)
	z := NormalQuantile(1 - (1-confidence)/2)
	val := q
	if f.ForMin {
		val = -q
	}
	return Estimate{Value: val, Err: z * se, StdErr: se, DF: float64(f.N - 1), Conf: confidence}
}

// quantileGradient returns d quantile / d (mu, sigma, xi) at prob p.
func (f GEVFit) quantileGradient(p float64) [3]float64 {
	l := -math.Log(p)
	xi := f.Dist.Xi
	if math.Abs(xi) < 1e-8 {
		// Gumbel limit: q = mu - sigma log l.
		// d/dxi via numerical difference for stability.
		dxi := (GEV{f.Dist.Mu, f.Dist.Sigma, 1e-5}.Quantile(p) -
			GEV{f.Dist.Mu, f.Dist.Sigma, -1e-5}.Quantile(p)) / 2e-5
		return [3]float64{1, -math.Log(l), dxi}
	}
	lp := math.Pow(l, -xi)
	dmu := 1.0
	dsigma := (lp - 1) / xi
	dxi := -f.Dist.Sigma/(xi*xi)*(lp-1) + f.Dist.Sigma/xi*(-math.Log(l))*lp
	return [3]float64{dmu, dsigma, dxi}
}

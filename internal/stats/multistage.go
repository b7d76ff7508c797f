package stats

import (
	"fmt"
	"math"
)

// Estimate is a point estimate with a symmetric confidence interval.
type Estimate struct {
	Value  float64 // point estimate (tau-hat, mean-hat, ...)
	Err    float64 // half-width of the confidence interval (epsilon)
	StdErr float64 // standard error sqrt(Var-hat)
	DF     float64 // degrees of freedom used for the t critical value
	Conf   float64 // confidence level, e.g. 0.95
}

// Lo returns the lower bound of the confidence interval.
func (e Estimate) Lo() float64 { return e.Value - e.Err }

// Hi returns the upper bound of the confidence interval.
func (e Estimate) Hi() float64 { return e.Value + e.Err }

// RelErr returns the relative half-width |Err/Value|; it returns +Inf
// when the point estimate is zero but the error bound is not.
func (e Estimate) RelErr() float64 {
	if e.Value == 0 {
		if e.Err == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return math.Abs(e.Err / e.Value)
}

func (e Estimate) String() string {
	return fmt.Sprintf("%.6g ± %.6g (%.0f%% conf)", e.Value, e.Err, e.Conf*100)
}

// ClusterSample holds what one executed map task reports for one
// intermediate key under two-stage sampling: the task processed a block
// ("cluster") with M total units, sampled m of them, and the sampled
// units produced the recorded running statistics for the key. Units
// that produced no value for the key count as implicit zeros, which is
// the paper's single assumption about the Map computation (Section 3.1).
type ClusterSample struct {
	M    int64       // units in the cluster (data items in the block)
	Sam  int64       // sampled units m_i (m_i <= M)
	Stat RunningStat // per-key count/sum/sumsq over the sampled units
}

// Design is the cluster-level half of a two-stage sample, the part
// every key shares: N clusters in the population, n of them sampled,
// their ΣM_i and ΣM_i², the confidence level, and whether the n
// clusters are the whole population read in full, which makes every
// estimate exact. It hoists Equation 3's factors N(N−n) and N/n and the
// t quantile, so each key's read-out, and each plan the target-error
// planner probes, pays for them once.
type Design struct {
	n       float64 // sampled clusters
	spread  float64 // N(N−n), the factor of s_u^2 in Equation 3
	scale   float64 // N/n
	units   float64 // ΣM_i
	unitsSq float64 // ΣM_i²
	conf    float64
	t       float64 // t_{n-1,1-alpha/2}; 0 when exact
	exact   bool
}

// NewDesign returns the design of n sampled clusters out of N, holding
// units units with squares summing to unitsSq, read at the given
// confidence level; exact says they are the whole population in full.
func NewDesign(N int64, n int, units, unitsSq int64, confidence float64, exact bool) Design {
	Nf, fn := float64(N), float64(n)
	d := Design{n: fn, spread: Nf * (Nf - fn), scale: Nf / fn,
		units: float64(units), unitsSq: float64(unitsSq), conf: confidence, exact: exact}
	if !exact {
		d.t = TwoSidedT(confidence, fn-1)
	}
	return d
}

// T returns t_{n-1,1-alpha/2}, the quantile the design's intervals use:
// NaN with fewer than two clusters, 0 when the design is exact.
func (d *Design) T() float64 { return d.t }

// Variance evaluates Equation 3 of the paper,
//
//	Var(tau-hat) = N(N−n) s_u^2 / n + (N/n) sum_i M_i (M_i - m_i) s_i^2 / m_i,
//
// from the between-cluster variance s_u^2 and the within-cluster sum.
// The between-cluster term, and then the variance, are clamped at zero:
// rounding can drive them below it, and so can a planner's probe with
// n > N or negative components.
//
//approx:hotpath
func (d *Design) Variance(su2, within float64) float64 {
	between := d.spread * su2 / d.n
	if between < 0 {
		between = 0
	}
	v := between + d.scale*within
	if v < 0 {
		return 0
	}
	return v
}

// ClusterSums accumulates one key's sums over the clusters of a
// two-stage sample (Section 3.1): Σtau_i, Σtau_i², Σtau_i·M_i, the
// within-cluster terms M_i (M_i - m_i) s_i^2 / m_i of Equation 3 and
// Σs_i², where tau_i = M_i·ybar_i is cluster i's estimated total and
// s_i^2 the variance of its sampled units, implicit zeros included. A
// cluster in which the key never appeared has tau_i = 0 and s_i^2 = 0
// and adds nothing, so only clusters that produced the key need Add and
// memory is O(1) per key however many clusters the sample has; the
// Design handed to the read-outs counts the rest. The sums are float64
// additions in Add order.
type ClusterSums struct {
	tau, tau2, tauM, within, s2 float64
}

// Add folds in one cluster of M units, m of them sampled, whose sampled
// units produced rs for the key.
func (a *ClusterSums) Add(M, m int64, rs RunningStat) {
	if m <= 0 {
		return
	}
	Mf := float64(M)
	tau := Mf * rs.MeanOverN(m)
	s2 := rs.VarianceOverN(m)
	a.tau += tau
	a.tau2 += tau * tau
	a.tauM += tau * Mf
	a.s2 += s2
	// A fully enumerated cluster has no within-cluster sampling
	// variance and a one-unit sample carries no information about it.
	if m >= 2 && m < M {
		a.within += Mf * (Mf - float64(m)) * s2 / float64(m)
	}
}

// su2 returns s_u^2, the variance of the n clusters' tau_i (those
// without the key count as zeros), from the one-pass sums.
func (a *ClusterSums) su2(n float64) float64 {
	if n < 2 {
		return 0
	}
	mean := a.tau / n
	v := (a.tau2 - n*mean*mean) / (n - 1)
	if v < 0 {
		return 0
	}
	return v
}

// unbounded marks est as carrying no usable interval.
func unbounded(est Estimate) Estimate {
	est.Err = math.Inf(1)
	est.StdErr = math.Inf(1)
	return est
}

// Sum estimates the key's population total with a confidence interval
// (Equations 1-3). With fewer than two sampled clusters no variance can
// be estimated and the bound is +Inf unless the design is exact, in
// which case so is the estimate.
func (a *ClusterSums) Sum(d *Design) Estimate {
	est := Estimate{Conf: d.conf, DF: d.n - 1}
	if d.n == 0 {
		return unbounded(est)
	}
	est.Value = d.scale * a.tau
	if d.exact {
		return est
	}
	if d.n < 2 {
		return unbounded(est)
	}
	est.StdErr = math.Sqrt(d.Variance(a.su2(d.n), a.within))
	est.Err = d.t * est.StdErr
	return est
}

// Mean estimates the key's per-unit mean (the population total over the
// number of units) by ratio estimation: the cluster sizes M_i are known
// exactly, so the within-cluster residual variance reduces to s_i^2.
func (a *ClusterSums) Mean(d *Design) Estimate {
	est := Estimate{Conf: d.conf, DF: d.n - 1}
	if d.n == 0 || d.units == 0 {
		return unbounded(est)
	}
	b := a.tau / d.units
	est.Value = b
	if d.exact {
		return est
	}
	if d.n < 2 {
		return unbounded(est)
	}
	// Residuals d_i = tau_i - b*M_i have mean exactly zero, so
	// s_d^2 = sum(d_i^2) / (n-1) with
	// sum(d_i^2) = Σtau² - 2b·ΣtauM + b²·ΣM².
	sd2 := (a.tau2 - 2*b*a.tauM + b*b*d.unitsSq) / (d.n - 1)
	if sd2 < 0 {
		sd2 = 0
	}
	est.StdErr = math.Sqrt(d.Variance(sd2, a.within)) / (d.scale * d.units)
	est.Err = d.t * est.StdErr
	return est
}

// Plan returns what the target-error planner reads of the key
// (Equations 6 and 7): the estimated total, s_u^2, the within-cluster
// sum of the clusters so far and their mean s_i^2.
//
//approx:hotpath
func (a *ClusterSums) Plan(d *Design) (tau, su2, within, avgS2 float64) {
	return d.scale * a.tau, a.su2(d.n), a.within, a.s2 / d.n
}

// TwoStage is a two-stage (cluster) sample: N clusters exist in the
// population, and Clusters holds the per-cluster reports of the n
// executed map tasks. In MapReduce terms, N is the total number of map
// tasks of the job and Clusters has one entry per completed task. Its
// estimators fold the list into a ClusterSums, in list order.
type TwoStage struct {
	N        int64 // number of clusters in the population (total map tasks)
	Clusters []ClusterSample
}

// fold returns the sample's ClusterSums and Design.
func (ts TwoStage) fold(confidence float64) (ClusterSums, Design) {
	var a ClusterSums
	var units, unitsSq int64
	exact := int64(len(ts.Clusters)) == ts.N
	for _, c := range ts.Clusters {
		a.Add(c.M, c.Sam, c.Stat)
		units += c.M
		unitsSq += c.M * c.M
		if c.Sam < c.M {
			exact = false
		}
	}
	return a, NewDesign(ts.N, len(ts.Clusters), units, unitsSq, confidence, exact)
}

// Sum estimates the population total of the key's values at the given
// confidence level (e.g. 0.95); see ClusterSums.Sum.
func (ts TwoStage) Sum(confidence float64) Estimate {
	a, d := ts.fold(confidence)
	return a.Sum(&d)
}

// Count is an alias for Sum for indicator-valued computations (the
// count of units matching a predicate is the sum of 0/1 values).
func (ts TwoStage) Count(confidence float64) Estimate { return ts.Sum(confidence) }

// Mean estimates the per-unit mean of the key's values; see
// ClusterSums.Mean.
func (ts TwoStage) Mean(confidence float64) Estimate {
	a, d := ts.fold(confidence)
	return a.Mean(&d)
}

// BivariateCluster extends ClusterSample with a second per-unit
// variable so ratios such as sum(y)/sum(x) (e.g. average request size =
// total bytes / total requests) can be estimated. SumXY is the sum of
// per-unit products, needed for the covariance of the linearization.
type BivariateCluster struct {
	M     int64
	Sam   int64
	Y     RunningStat
	X     RunningStat
	SumXY float64
}

// TwoStageRatio estimates R = total(y)/total(x) from a two-stage sample
// with N population clusters.
func TwoStageRatio(N int64, clusters []BivariateCluster, confidence float64) Estimate {
	n := len(clusters)
	est := Estimate{Conf: confidence, DF: float64(n - 1)}
	if n == 0 {
		return unbounded(est)
	}
	var sumY, sumX float64
	yhat := make([]float64, n)
	xhat := make([]float64, n)
	for i, c := range clusters {
		if c.Sam > 0 {
			yhat[i] = float64(c.M) * c.Y.Sum / float64(c.Sam)
			xhat[i] = float64(c.M) * c.X.Sum / float64(c.Sam)
		}
		sumY += yhat[i]
		sumX += xhat[i]
	}
	if sumX == 0 {
		return unbounded(est)
	}
	b := sumY / sumX
	est.Value = b
	if n < 2 {
		exhaustive := int64(n) == N
		for _, c := range clusters {
			if c.Sam < c.M {
				exhaustive = false
			}
		}
		if exhaustive {
			return est
		}
		return unbounded(est)
	}
	resid := make([]float64, n)
	within := 0.0
	for i, c := range clusters {
		resid[i] = yhat[i] - b*xhat[i]
		if c.Sam >= 2 && c.Sam < c.M {
			m := float64(c.Sam)
			// Per-unit residual r_j = y_j - b x_j over the m sampled
			// units (implicit zeros included): its variance expands to
			// var(y) + b^2 var(x) - 2 b cov(x, y).
			meanY := c.Y.Sum / m
			meanX := c.X.Sum / m
			vy := c.Y.VarianceOverN(c.Sam)
			vx := c.X.VarianceOverN(c.Sam)
			cxy := (c.SumXY - m*meanX*meanY) / (m - 1)
			s2 := vy + b*b*vx - 2*b*cxy
			if s2 < 0 {
				s2 = 0
			}
			within += float64(c.M) * float64(c.M-c.Sam) * s2 / m
		}
	}
	d := NewDesign(N, n, 0, 0, confidence, false)
	est.StdErr = math.Sqrt(d.Variance(Variance(resid), within)) / (d.scale * sumX)
	est.Err = d.t * est.StdErr
	return est
}

// ThreeStageCluster is a cluster in a three-stage design: within each
// sampled cluster, G_i groups of intermediate pairs exist (e.g.
// paragraphs inside pages), g_i of which are observed, and the recorded
// statistics range over the observed intermediate pairs rather than
// over input units. The programmer opts in explicitly (Section 3.1,
// "Three-stage sampling").
type ThreeStageCluster struct {
	M    int64       // secondary units (input items) in the cluster
	Sam  int64       // sampled secondary units
	G    int64       // intermediate pairs produced per sampled unit (total observed)
	Stat RunningStat // stats over observed intermediate pairs
}

// ThreeStageMean estimates the mean over intermediate pairs (rather
// than over input units). The per-unit pair counts act as the size
// variable of a ratio estimator: y = value sums, x = pair counts.
func ThreeStageMean(N int64, clusters []ThreeStageCluster, confidence float64) Estimate {
	biv := make([]BivariateCluster, len(clusters))
	for i, c := range clusters {
		biv[i] = BivariateCluster{
			M:   c.M,
			Sam: c.Sam,
			Y:   c.Stat,
			X:   RunningStat{Count: c.G, Sum: float64(c.G), SumSq: float64(c.G)},
			// Without per-unit pair bookkeeping we conservatively use
			// the value sum as the cross moment, which upper-bounds
			// the residual variance for nonnegative values.
			SumXY: c.Stat.Sum,
		}
	}
	return TwoStageRatio(N, biv, confidence)
}

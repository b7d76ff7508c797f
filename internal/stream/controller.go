// The adaptive per-window controller: the streaming sibling of
// approx.DeadlineSLO. The batch controller sees a pilot wave and
// solves once; here every closed window is a pilot for the next one.
// Two nested loops share the plan:
//
//   - error loop: under simple random sampling within a stratum the
//     variance scales as (1/f - 1) with f the realized sampling
//     fraction, so inverting the error model is algebra: to move the
//     realized relative error e to the target ε, the next window needs
//     (1/f' - 1) = (1/f - 1) · (ε/e)². The per-stratum reservoir
//     capacity that realizes f' falls out of the rate forecast.
//   - latency loop: the modeled window cost is affine in the kept
//     fraction of strata, so the latency budget solves directly for
//     KeepFrac; shedding is the pressure valve when the input rate
//     outruns what sampling alone can absorb, and the shed strata
//     surface honestly as a wider interval (dropped clusters).
//
// Rate and stratum-count forecasts are EWMAs of the closed windows —
// deterministic state fed only by deterministic WindowResults, so the
// controller never threatens the replay guarantee.
package stream

import "math"

// Cost is the analytic per-window latency model, in seconds. Modeled
// — not measured — latency keeps the series independent of the wall
// clock while still scaling with exactly the work a real ingest loop
// would do; the same philosophy as the batch plane's AnalyticCost.
type Cost struct {
	Base    float64 // fixed per-window close overhead
	Route   float64 // per record routed (stratify, hash, batch)
	Fold    float64 // per record folded into a kept stratum
	Sample  float64 // per reservoir admission (value parse + store)
	Stratum float64 // per kept stratum at close (estimate merge)
}

// DefaultCost roughly mirrors the batch plane's PaperCost scaled to
// per-record streaming work.
func DefaultCost() Cost {
	return Cost{Base: 2e-3, Route: 2e-6, Fold: 6e-6, Sample: 4e-5, Stratum: 1e-4}
}

// normalized substitutes DefaultCost for the zero value.
func (c Cost) normalized() Cost {
	if c == (Cost{}) {
		return DefaultCost()
	}
	return c
}

// Window evaluates the model for one closed window.
func (c Cost) Window(records, folded, parses int64, keptStrata int) float64 {
	return c.Base +
		c.Route*float64(records) +
		c.Fold*float64(folded) +
		c.Sample*float64(parses) +
		c.Stratum*float64(keptStrata)
}

// expectedAdmissions is the expected number of reservoir admissions
// when m records are offered to a capacity-k reservoir:
// min(m, k·(1 + ln(m/k))).
func expectedAdmissions(k int, m float64) float64 {
	fk := float64(k)
	if m <= fk {
		return m
	}
	return fk * (1 + math.Log(m/fk))
}

// Controller retunes the next window's PlanSpec from each closed
// window. Zero-value knobs get defaults at init.
type Controller struct {
	SLO  SLO
	Cost Cost

	// MinCapacity/MaxCapacity clamp the per-stratum reservoir size
	// (defaults 8 and 8192).
	MinCapacity int
	MaxCapacity int
	// MinKeepFrac floors stratum shedding (default 0.25): the
	// estimator keeps enough clusters to say something.
	MinKeepFrac float64
	// Headroom is the fraction of TargetRelErr the error loop aims at
	// (default 0.8), absorbing forecast error before the SLO line.
	Headroom float64
	// Margin multiplies the solved capacity (default 1.25): the
	// capacity is sized against the *forecast* mean stratum volume, and
	// both the forecast lag on an upswing and the dispersion of real
	// stratum sizes around the mean eat into the solved fraction.
	Margin float64
	// Alpha is the EWMA weight of the newest window in the rate and
	// stratum forecasts (default 0.5).
	Alpha float64

	plan     PlanSpec
	rate     float64 // records/sec forecast
	strata   float64 // observed-strata forecast
	haveRate bool
	size     float64 // window duration (seconds)
}

// NewController builds a controller for an SLO under a cost model.
func NewController(slo SLO, cost Cost) *Controller {
	return &Controller{SLO: slo, Cost: cost}
}

// init applies defaults and the query's starting plan; the pipeline
// calls it once before the first window opens.
func (c *Controller) init(q Query, cost Cost) PlanSpec {
	if c.Cost == (Cost{}) {
		c.Cost = cost
	}
	if c.SLO == (SLO{}) {
		c.SLO = q.SLO
	}
	if c.SLO.Confidence <= 0 || c.SLO.Confidence >= 1 {
		c.SLO.Confidence = 0.95
	}
	if c.MinCapacity <= 0 {
		c.MinCapacity = 8
	}
	if c.MaxCapacity <= 0 {
		c.MaxCapacity = 8192
	}
	if c.MinKeepFrac <= 0 {
		c.MinKeepFrac = 0.25
	}
	if c.Headroom <= 0 || c.Headroom > 1 {
		c.Headroom = 0.8
	}
	if c.Margin <= 0 {
		c.Margin = 1.25
	}
	if c.Alpha <= 0 || c.Alpha > 1 {
		c.Alpha = 0.5
	}
	c.size = q.Window.Size
	c.plan = PlanSpec{Capacity: q.Capacity, KeepFrac: 1}
	return c.plan
}

// Observe folds one closed window into the forecasts and returns the
// plan for the next window to open.
func (c *Controller) Observe(r WindowResult) PlanSpec {
	dur := r.End - r.Start
	if dur <= 0 {
		dur = c.size
	}
	rateNow := float64(r.Records) / dur
	if !c.haveRate {
		c.rate = rateNow
		c.strata = float64(r.Strata)
		c.haveRate = true
	} else {
		c.rate += c.Alpha * (rateNow - c.rate)
		c.strata += c.Alpha * (float64(r.Strata) - c.strata)
	}
	expRecords := c.rate * c.size
	nStrata := c.strata
	if nStrata < 1 {
		nStrata = 1
	}
	perStratum := expRecords / nStrata

	plan := c.plan
	plan.Capacity = c.retuneCapacity(r, perStratum, plan.Capacity)
	plan.KeepFrac = c.solveKeep(expRecords, nStrata, &plan.Capacity)
	c.plan = plan
	return plan
}

// retuneCapacity inverts the error model: scale the realized
// (1/f - 1) variance lever by (target/realized)² and solve the
// capacity that yields the new sampling fraction at the forecast
// per-stratum volume.
func (c *Controller) retuneCapacity(r WindowResult, perStratum float64, capNow int) int {
	if c.SLO.TargetRelErr <= 0 || r.Folded == 0 || r.Sampled >= r.Folded {
		// No error target, an empty window, or nothing was left out of
		// the sample (exact, or a count query whose only error lever
		// is shedding): capacity carries no signal — keep it.
		return capNow
	}
	rel := r.Est.RelErr()
	if math.IsNaN(rel) || rel <= 0 {
		return capNow
	}
	target := c.SLO.TargetRelErr * c.Headroom
	f := float64(r.Sampled) / float64(r.Folded)
	var fNext float64
	if math.IsInf(rel, 1) {
		// Unbounded interval (too few sampled units for a variance):
		// grow aggressively rather than divide by infinity.
		fNext = math.Min(1, 4*f)
	} else {
		scale := (target / rel) * (target / rel)
		lever := (1/f - 1) * scale
		fNext = 1 / (1 + lever)
	}
	capNext := int(math.Ceil(fNext * perStratum * c.Margin))
	if rel > c.SLO.TargetRelErr {
		// The window violated the SLO outright: expand, never shrink.
		// Take the larger of the fpc inversion and a direct 1/m
		// variance scaling (the right answer far from enumeration,
		// and a conservative one near it), capped at 4x per window to
		// bound the overshoot a noisy variance estimate can cause.
		growth := (rel / target) * (rel / target)
		if growth > 4 {
			growth = 4
		}
		if byVar := int(math.Ceil(float64(capNow) * growth)); capNext < byVar {
			capNext = byVar
		}
		if capNext < capNow {
			capNext = capNow
		}
	} else if capNext < capNow*9/10 {
		// Under target: drift down slowly (10% per window at most).
		// The realized error of a heavy-tailed window is itself noisy;
		// one quiet window must not gut the sample the violations
		// before it demanded.
		capNext = capNow * 9 / 10
	}
	if capNext < c.MinCapacity {
		capNext = c.MinCapacity
	}
	if capNext > c.MaxCapacity {
		capNext = c.MaxCapacity
	}
	return capNext
}

// solveKeep solves the latency budget for the kept-stratum fraction.
// The model is affine in keep: fixed routing work plus keep-scaled
// fold/sample/close work. If even the floor fraction blows the budget
// the reservoir capacity is cut too — latency wins over error, and
// the wider interval reports the price.
func (c *Controller) solveKeep(expRecords, nStrata float64, capacity *int) float64 {
	if c.SLO.MaxLatency <= 0 {
		return 1
	}
	keep := c.keepFor(expRecords, nStrata, *capacity)
	if keep >= 1 {
		return 1
	}
	if keep < c.MinKeepFrac {
		// Shedding alone cannot hold the budget: degrade capacity to
		// the floor as well and re-solve once.
		if *capacity > c.MinCapacity {
			*capacity = c.MinCapacity
			keep = c.keepFor(expRecords, nStrata, *capacity)
		}
		if keep < c.MinKeepFrac {
			keep = c.MinKeepFrac
		}
	}
	if keep > 1 {
		keep = 1
	}
	return keep
}

// keepFor returns the keep fraction that exactly spends the latency
// budget at the given capacity (>= 1 means no shedding needed).
func (c *Controller) keepFor(expRecords, nStrata float64, capacity int) float64 {
	admitPer := expectedAdmissions(capacity, expRecords/nStrata)
	fixed := c.Cost.Base + c.Cost.Route*expRecords
	perKeep := c.Cost.Fold*expRecords + c.Cost.Sample*nStrata*admitPer + c.Cost.Stratum*nStrata
	if perKeep <= 0 {
		return 1
	}
	return (c.SLO.MaxLatency - fixed) / perKeep
}

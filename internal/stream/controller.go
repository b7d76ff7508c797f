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

// The analytic per-window latency model, in seconds; it roughly mirrors
// the batch plane's PaperCost scaled to per-record streaming work.
// Modeled — not measured — latency keeps the series independent of the
// wall clock while still scaling with exactly the work a real ingest
// loop would do; the same philosophy as the batch plane's AnalyticCost.
const (
	costBase    = 2e-3 // fixed per-window close overhead
	costRoute   = 2e-6 // per record routed (stratify, hash, batch)
	costFold    = 6e-6 // per record folded into a kept stratum
	costSample  = 4e-5 // per reservoir admission (value parse + store)
	costStratum = 1e-4 // per kept stratum at close (estimate merge)
)

// windowLatency evaluates the model for one closed window.
func windowLatency(records, folded, parses int64, keptStrata int) float64 {
	return costBase +
		costRoute*float64(records) +
		costFold*float64(folded) +
		costSample*float64(parses) +
		costStratum*float64(keptStrata)
}

// The controller's tuning.
const (
	// minCapacity and maxCapacity clamp the per-stratum reservoir size.
	minCapacity = 8
	maxCapacity = 8192
	// minKeepFrac floors stratum shedding: the estimator keeps enough
	// clusters to say something.
	minKeepFrac = 0.25
	// headroom is the fraction of TargetRelErr the error loop aims at,
	// absorbing forecast error before the SLO line.
	headroom = 0.8
	// margin multiplies the solved capacity: the capacity is sized
	// against the *forecast* mean stratum volume, and both the forecast
	// lag on an upswing and the dispersion of real stratum sizes around
	// the mean eat into the solved fraction.
	margin = 1.25
	// alpha is the EWMA weight of the newest window in the rate and
	// stratum forecasts.
	alpha = 0.5
)

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

// controller retunes the next window's PlanSpec from each closed
// window. The pipeline builds one per run of a query whose SLO sets a
// target or a latency budget, so every run starts from the same
// forecasts.
type controller struct {
	slo      SLO
	size     float64 // window duration (seconds)
	rate     float64 // records/sec forecast
	strata   float64 // observed-strata forecast
	haveRate bool
}

// observe folds one closed window into the forecasts and retunes plan,
// the current one, into the plan for the next window to open.
func (c *controller) observe(r WindowResult, plan PlanSpec) PlanSpec {
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
		c.rate += alpha * (rateNow - c.rate)
		c.strata += alpha * (float64(r.Strata) - c.strata)
	}
	expRecords := c.rate * c.size
	nStrata := c.strata
	if nStrata < 1 {
		nStrata = 1
	}
	perStratum := expRecords / nStrata

	plan.Capacity = c.retuneCapacity(r, perStratum, plan.Capacity)
	plan.KeepFrac = c.solveKeep(expRecords, nStrata, &plan.Capacity)
	return plan
}

// retuneCapacity inverts the error model: scale the realized
// (1/f - 1) variance lever by (target/realized)² and solve the
// capacity that yields the new sampling fraction at the forecast
// per-stratum volume.
func (c *controller) retuneCapacity(r WindowResult, perStratum float64, capNow int) int {
	if c.slo.TargetRelErr <= 0 || r.Folded == 0 || r.Sampled >= r.Folded {
		// No error target, an empty window, or nothing was left out of
		// the sample (exact, or a count query whose only error lever
		// is shedding): capacity carries no signal — keep it.
		return capNow
	}
	rel := r.Est.RelErr()
	if math.IsNaN(rel) || rel <= 0 {
		return capNow
	}
	target := c.slo.TargetRelErr * headroom
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
	capNext := int(math.Ceil(fNext * perStratum * margin))
	if rel > c.slo.TargetRelErr {
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
	if capNext < minCapacity {
		capNext = minCapacity
	}
	if capNext > maxCapacity {
		capNext = maxCapacity
	}
	return capNext
}

// solveKeep solves the latency budget for the kept-stratum fraction.
// The model is affine in keep: fixed routing work plus keep-scaled
// fold/sample/close work. If even the floor fraction blows the budget
// the reservoir capacity is cut too — latency wins over error, and
// the wider interval reports the price.
func (c *controller) solveKeep(expRecords, nStrata float64, capacity *int) float64 {
	if c.slo.MaxLatency <= 0 {
		return 1
	}
	keep := c.keepFor(expRecords, nStrata, *capacity)
	if keep >= 1 {
		return 1
	}
	if keep < minKeepFrac {
		// Shedding alone cannot hold the budget: degrade capacity to
		// the floor as well and re-solve once.
		if *capacity > minCapacity {
			*capacity = minCapacity
			keep = c.keepFor(expRecords, nStrata, *capacity)
		}
		if keep < minKeepFrac {
			keep = minKeepFrac
		}
	}
	if keep > 1 {
		keep = 1
	}
	return keep
}

// keepFor returns the keep fraction that exactly spends the latency
// budget at the given capacity (>= 1 means no shedding needed).
func (c *controller) keepFor(expRecords, nStrata float64, capacity int) float64 {
	admitPer := expectedAdmissions(capacity, expRecords/nStrata)
	fixed := costBase + costRoute*expRecords
	perKeep := costFold*expRecords + costSample*nStrata*admitPer + costStratum*nStrata
	if perKeep <= 0 {
		return 1
	}
	return (c.slo.MaxLatency - fixed) / perKeep
}

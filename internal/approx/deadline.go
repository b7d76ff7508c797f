package approx

import (
	"fmt"
	"math"

	"approxhadoop/internal/mapreduce"
)

// DeadlineSLO is the controller for per-job deadline service-level
// objectives. It inverts the paper's target-error optimization
// (Section 4.4): instead of minimizing time subject to an error bound,
// it minimizes the predicted error subject to a virtual-time budget.
//
// Operation: a small pilot wave runs at PilotRatio to measure the cost
// parameters (t0, tr, tp) and the per-key variance components. Once
// the pilot completes, the controller computes the remaining budget
// against planSlack*Deadline and, scanning the sampling-ratio grid, asks
// for each candidate ratio how many additional map tasks fit the
// budget given the job's effective slot share (waves of TotalMapSlots
// tasks, each costing t0 + Mbar*tr + m*tp). Among the affordable
// (n2, m) pairs it picks the one with the smallest predicted
// worst-key relative error via Equation 7, exactly the machinery the
// TargetError controller searches in the other direction. The plan is
// re-derived at every wave boundary with the accumulated statistics,
// so early mispredictions self-correct while budget remains.
//
// The intervals stay honest: tasks beyond the plan are dropped — not
// silently truncated — so the multi-stage estimators widen the 95%
// confidence intervals to account for exactly what was skipped.
//
// When even the cheapest configuration cannot produce a valid
// interval by the deadline (fewer than two clusters would complete),
// the controller aborts the job with a descriptive infeasibility
// error rather than returning a result whose bounds would be a lie.
// BestEffort instead lets such a job finish with whatever it has
// (unbounded intervals included).
//
// DeadlineSLO plans toward planSlack*Deadline: plans are derived from
// noisy pilot statistics, and the reduces still need time to finalize
// after the last map, so budgeting against a tighter deadline keeps
// the realized runtime inside the user's SLO. It does not enforce the
// cutoff itself; pair it with RetryPolicy.JobDeadline so the
// framework hard-stops the map phase if the plan mispredicts.
type DeadlineSLO struct {
	// Deadline is the virtual-time budget, in seconds from job start,
	// for the map phase. Required.
	Deadline float64
	// PilotTasks and PilotRatio size the pilot wave (defaults: 1/4 of
	// the job's map-slot share, min 2, at ratio 0.01).
	PilotTasks int
	PilotRatio float64
	// BestEffort finishes infeasible jobs with whatever completed
	// (possibly unbounded intervals) instead of aborting them.
	BestEffort bool

	waves
}

// Name implements mapreduce.Controller.
func (c *DeadlineSLO) Name() string {
	return fmt.Sprintf("deadline-slo(%gs)", c.Deadline)
}

// budget returns the remaining planning budget at the current instant.
func (c *DeadlineSLO) budget(v *mapreduce.JobView) float64 {
	return planSlack*c.Deadline - v.Elapsed
}

// Plan implements mapreduce.Controller.
func (c *DeadlineSLO) Plan(v *mapreduce.JobView) (float64, mapreduce.PlanAction) {
	c.size(v, true, c.PilotTasks, c.PilotRatio)
	return c.launch(v)
}

// Completed implements mapreduce.Controller.
func (c *DeadlineSLO) Completed(v *mapreduce.JobView) mapreduce.Directive {
	c.size(v, true, c.PilotTasks, c.PilotRatio)
	switch c.at(v) {
	case eventFirst, eventBoundary:
		return c.solve(v)
	case eventDrained:
		// Everything planned has finished. If budget remains, re-solve
		// to spend it on accuracy; otherwise drop what's left so the
		// job finalizes inside the deadline.
		if v.Pending == 0 {
			return mapreduce.Directive{}
		}
		if c.budget(v) > 0 {
			return c.solve(v)
		}
		return mapreduce.Directive{DropPending: true, SampleRatio: c.ratio}
	}
	return mapreduce.Directive{}
}

// solve picks (n2, m) = (additional maps, per-task sample size)
// minimizing the predicted worst-key relative error subject to the
// remaining budget, and stores the plan. It returns the directive
// enacting the decision (possibly an infeasibility abort).
func (c *DeadlineSLO) solve(v *mapreduce.JobView) mapreduce.Directive {
	c.solving(v)
	c.planned = v.Launched
	if c.ratio <= 0 {
		c.ratio = c.firstRatio
	}

	budget := c.budget(v)
	remaining := v.TotalMaps - v.Launched
	if remaining <= 0 {
		return mapreduce.Directive{}
	}
	if budget <= 0 {
		return c.outOfBudget(v)
	}

	t0, tr, tp := v.CostParams()
	mbar := v.AvgItems
	n1 := v.Completed
	committed := v.Running // already launched, will complete regardless
	c.plan.gather(v)
	slots := v.TotalMapSlots
	if slots < 1 {
		slots = 1
	}
	// Tasks already running occupy the slots until their wave drains;
	// that time comes out of the budget before any new wave can start.
	// Without this reservation every wave-boundary re-solve would
	// overcommit by roughly one wave and blow the deadline.
	drain := 0.0
	if v.Running > 0 {
		mCur := math.Max(1, math.Round(c.ratio*mbar))
		drain = t0 + mbar*tr + mCur*tp
	}

	type candidate struct {
		extra int
		ratio float64
		err   float64 // predicted worst-key relative error
		cost  float64
	}
	best := candidate{extra: -1}
	for _, ratio := range ratioGrid {
		m := math.Max(1, math.Round(ratio*mbar))
		tmap := t0 + mbar*tr + m*tp
		if tmap <= 0 {
			tmap = math.SmallestNonzeroFloat64
		}
		avail := budget - drain
		if avail < 0 {
			avail = 0
		}
		waves := int(avail / tmap)
		extra := waves * slots
		if extra > remaining {
			extra = remaining
		}
		cand := candidate{extra: extra, ratio: m / mbar, cost: float64(extra) * tmap}
		if mbar <= 0 {
			cand.ratio = ratio
		}
		if len(c.plan.stats) > 0 && n1 >= 2 && mbar > 0 {
			cand.err = c.plan.worstRelError(newProbe(v.TotalMaps, n1, committed+extra, mbar, m, v.Confidence))
		} else {
			// No variance statistics yet (e.g. precise reducers):
			// surrogate objective — prefer more coverage, then more
			// data per task.
			cand.err = 1/(float64(extra)+2) - cand.ratio*1e-9
		}
		better := false
		switch {
		case best.extra < 0:
			better = true
		case cand.err < best.err:
			better = true
		//lint:ignore nofloateq exact ties between grid candidates break toward the cheaper plan
		case cand.err == best.err && cand.cost < best.cost:
			better = true
		}
		if better {
			best = cand
		}
	}

	if best.extra <= 0 {
		// Not even one more wave fits the budget.
		return c.outOfBudget(v)
	}
	if best.ratio > 1 {
		best.ratio = 1
	}
	c.ratio = best.ratio
	c.planned = v.Launched + best.extra
	return mapreduce.Directive{SampleRatio: c.ratio}
}

// outOfBudget resolves a plan that cannot afford further launches:
// drop the pending tail when enough clusters (two) will complete to
// form a valid interval, otherwise declare the SLO infeasible.
func (c *DeadlineSLO) outOfBudget(v *mapreduce.JobView) mapreduce.Directive {
	c.planned = v.Launched
	if v.Completed+v.Running >= 2 || c.BestEffort {
		return mapreduce.Directive{DropPending: true, SampleRatio: c.ratio}
	}
	return mapreduce.Directive{Abort: fmt.Errorf(
		"approx: deadline SLO of %gs is infeasible: %.1fs of the planning budget already consumed with only %d map tasks complete — fewer than the two sampling clusters a confidence interval requires; raise the deadline or set BestEffort",
		c.Deadline, v.Elapsed, v.Completed)}
}

// worstRelError evaluates Equation 7 for every gathered key and returns
// the worst predicted relative half-width at the probe's plan.
func (t *planTable) worstRelError(p probe) float64 {
	worst := 0.0
	for i := range t.stats {
		k := &t.stats[i]
		errHalf := p.errHalf(k.su2, k.withinDone, k.avgWithin)
		if math.IsInf(errHalf, 1) || math.IsNaN(errHalf) {
			return math.Inf(1)
		}
		rel := errHalf
		if k.tau != 0 {
			rel = errHalf / math.Abs(k.tau)
		}
		if rel > worst {
			worst = rel
		}
	}
	return worst
}

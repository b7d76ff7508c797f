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
// against Slack*Deadline and, scanning the sampling-ratio grid, asks
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
// DeadlineSLO plans toward Slack*Deadline but does not enforce the
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
	// RatioGrid overrides the sampling-ratio candidates.
	RatioGrid []float64
	// Slack multiplies the deadline during planning (default 0.8):
	// plans are derived from noisy pilot statistics, and the reduces
	// still need time to finalize after the last map, so budgeting
	// against a tighter deadline keeps the realized runtime inside the
	// user's SLO.
	Slack float64
	// BestEffort finishes infeasible jobs with whatever completed
	// (possibly unbounded intervals) instead of aborting them.
	BestEffort bool

	firstWave int
	ratio     float64 // sampling ratio for post-solve launches
	planned   int     // total maps to launch; 0 = not yet planned
	solved    bool
	solveAt   int // completed count that triggers the next re-solve
	plan      planTable
}

// Name implements mapreduce.Controller.
func (c *DeadlineSLO) Name() string {
	return fmt.Sprintf("deadline-slo(%gs)", c.Deadline)
}

func (c *DeadlineSLO) init(v *mapreduce.JobView) {
	if c.firstWave > 0 {
		return
	}
	if c.PilotTasks <= 0 {
		c.PilotTasks = v.TotalMapSlots / 4
		if c.PilotTasks < 2 {
			c.PilotTasks = 2
		}
	}
	if c.PilotTasks > v.TotalMaps {
		c.PilotTasks = v.TotalMaps
	}
	if c.PilotRatio <= 0 || c.PilotRatio > 1 {
		c.PilotRatio = 0.01
	}
	c.firstWave = c.PilotTasks
}

// budget returns the remaining planning budget at the current instant.
func (c *DeadlineSLO) budget(v *mapreduce.JobView) float64 {
	slack := c.Slack
	if slack <= 0 || slack > 1 {
		slack = 0.8
	}
	return slack*c.Deadline - v.Elapsed
}

// Plan implements mapreduce.Controller.
func (c *DeadlineSLO) Plan(v *mapreduce.JobView) (float64, mapreduce.PlanAction) {
	c.init(v)
	if !c.solved {
		if v.Launched < c.firstWave {
			return c.PilotRatio, mapreduce.PlanRun
		}
		// Pilot fully launched: wait for it before spending budget.
		return 0, mapreduce.PlanDefer
	}
	if v.Launched >= c.planned {
		// Plan exhausted: hold the rest pending until Completed either
		// drops them or, at a wave boundary with budget left over,
		// extends the plan.
		return 0, mapreduce.PlanDefer
	}
	return c.ratio, mapreduce.PlanRun
}

// Completed implements mapreduce.Controller.
func (c *DeadlineSLO) Completed(v *mapreduce.JobView) mapreduce.Directive {
	c.init(v)
	switch {
	case !c.solved:
		if v.Completed < c.firstWave {
			return mapreduce.Directive{}
		}
		return c.solve(v)
	case v.Launched >= c.planned && v.Running == 0:
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
	case v.Completed >= c.solveAt && v.Launched < c.planned:
		// Wave boundary: refine the plan with the richer statistics.
		return c.solve(v)
	}
	return mapreduce.Directive{}
}

// solve picks (n2, m) = (additional maps, per-task sample size)
// minimizing the predicted worst-key relative error subject to the
// remaining budget, and stores the plan. It returns the directive
// enacting the decision (possibly an infeasibility abort).
func (c *DeadlineSLO) solve(v *mapreduce.JobView) mapreduce.Directive {
	c.solved = true
	c.solveAt = v.Completed + v.TotalMapSlots // next wave boundary
	c.planned = v.Launched
	if c.ratio <= 0 {
		c.ratio = c.PilotRatio
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
	grid := c.RatioGrid
	if len(grid) == 0 {
		grid = defaultRatioGrid()
	}
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
	for _, ratio := range grid {
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

// planTable is the dense table of Equation 7 planning statistics the
// TargetError and DeadlineSLO planners fill from every partition's
// MultiStageReducer and reuse across solves.
type planTable struct {
	reducers []*MultiStageReducer // by partition; nil for any other logic
	stats    []planStat
	front    []int32 // indices into stats a worst-key probe visits; see keepFront
}

// gather refills the table from the job's reduces, sizing it once from
// their key counts.
func (t *planTable) gather(v *mapreduce.JobView) {
	t.reducers, t.stats = t.reducers[:0], t.stats[:0]
	if v.Logics == nil {
		return
	}
	keys := 0
	for _, logic := range v.Logics() {
		msr, _ := logic.(*MultiStageReducer)
		t.reducers = append(t.reducers, msr)
		if msr != nil {
			keys += len(msr.table)
		}
	}
	if cap(t.stats) < keys {
		t.stats = make([]planStat, 0, keys)
	}
	for part, msr := range t.reducers {
		if msr != nil {
			t.stats = msr.appendPlanStats(t.stats, int32(part), v.TotalMaps)
		}
	}
}

// before reports whether gathered key i precedes key j in (partition,
// key) order.
func (t *planTable) before(i, j int) bool {
	a, b := t.stats[i], t.stats[j]
	if a.part != b.part {
		return a.part < b.part
	}
	keys := t.reducers[a.part].table
	return keys[a.slot].key < keys[b.slot].key
}

// keepFront fills front with the gathered keys no other key dominates,
// or with every key once more than limit of them would be kept (past
// the solve's probe count, building the front costs more than the scans
// it saves).
//
// Key i dominates key j when i precedes j in (partition, key) order and
// each of i's su2, withinDone and avgWithin is >= j's, where a component
// of j that is -Inf is matched only by -Inf. probe.errHalf is then >= at
// i for every probe with non-negative coefficients: each step is a
// product with a coefficient >= 0, a sum, a clamp at zero or a square
// root, all monotone under IEEE rounding, and an intermediate +Inf or
// NaN ends in +Inf or NaN. The one step that is not monotone is 0*-Inf =
// NaN beside 0*x = 0, hence the -Inf rule; a NaN component is >= nothing
// and dominates nothing. So a dominated key is never the worst key a
// full scan would pick — on an exact tie its dominator precedes it and
// wins — and if its half-width is +Inf or NaN, so is its dominator's:
// scanning the front gives every non-strict verdict the full scan gives.
//
// One pass, O(len(stats) * len(front)): a key no kept key dominates
// evicts the kept keys it dominates and is kept.
//
//approx:hotpath
func (t *planTable) keepFront(limit int) {
	t.front = t.front[:0]
	for j := range t.stats {
		dominated := false
		for _, f := range t.front {
			if t.dominates(int(f), j) {
				dominated = true
				break
			}
		}
		if dominated {
			continue
		}
		kept := t.front[:0]
		for _, f := range t.front {
			if !t.dominates(j, int(f)) {
				kept = append(kept, f)
			}
		}
		if len(kept) >= limit {
			t.front = t.front[:0]
			for i := range t.stats {
				t.front = append(t.front, int32(i))
			}
			return
		}
		t.front = kept
		t.front = append(t.front, int32(j))
	}
}

// dominates reports whether gathered key i dominates key j (see
// keepFront).
func (t *planTable) dominates(i, j int) bool {
	a, b := &t.stats[i], &t.stats[j]
	if !(a.su2 >= b.su2 && a.withinDone >= b.withinDone && a.avgWithin >= b.avgWithin) {
		return false
	}
	if math.IsInf(b.su2, -1) && !math.IsInf(a.su2, -1) || math.IsInf(b.withinDone, -1) && !math.IsInf(a.withinDone, -1) ||
		math.IsInf(b.avgWithin, -1) && !math.IsInf(a.avgWithin, -1) {
		return false // only -Inf matches -Inf
	}
	return t.before(i, j)
}

package approx

import (
	"fmt"
	"math"
	"math/bits"

	"approxhadoop/internal/mapreduce"
	"approxhadoop/internal/stats"
)

// TargetError is the controller for user-specified target error bounds
// over multi-stage-sampling jobs (Sections 4.2 and 4.4).
//
// Operation: the first wave of maps runs precisely (or, with Pilot, a
// small pilot wave runs at PilotRatio). Once that wave completes, the
// controller gathers per-key variance components from the job's
// MultiStageReducers and the fitted cost parameters (t0, tr, tp), and
// solves
//
//	minimize   RET = n2 * t_map(Mbar, m) = n2 * (t0 + Mbar*tr + m*tp)
//	subject to t_{n-1,1-a/2} * sqrt(Var(tau)) <= Target * tau   (all keys)
//
// over the number of additional map tasks n2 and the per-task sample
// size m, by scanning m over a ratio grid and binary-searching the
// minimal feasible n2 (variance decreases monotonically in n). The
// solution is re-derived at every subsequent wave boundary with the
// accumulated statistics. Plans are solved against planSlack times the
// targets: they rest on noisy first-wave statistics, and the tighter
// bound keeps the realized interval inside the user's target (the
// paper reports meeting the target in every experiment). If no
// approximation satisfies the target, the job simply runs to
// completion precisely.
type TargetError struct {
	// Target is the relative error bound (e.g. 0.01 for ±1% of each
	// key's estimate). Zero disables the relative constraint.
	Target float64
	// Absolute, when positive, additionally bounds the absolute
	// half-width of every key's interval.
	Absolute float64
	// Pilot runs a small first wave at PilotRatio instead of a full
	// precise wave (Section 4.4's pilot sample, needed for jobs whose
	// maps would otherwise complete in a single wave).
	Pilot      bool
	PilotTasks int     // default: 1/4 of the map slots (min 2)
	PilotRatio float64 // default 0.01
	// Strict applies the relative Target to every key individually.
	// The default (false) applies it to the key with the maximum
	// predicted absolute error — the key the paper reports errors for.
	// Strict mode is the conservative reading of Section 4.2, but with
	// heavy-tailed key distributions (e.g. page popularity) the rarest
	// key can never satisfy a relative bound and strict mode degrades
	// to precise execution.
	Strict bool

	waves
}

// Name implements mapreduce.Controller.
func (c *TargetError) Name() string {
	return fmt.Sprintf("target-error(%.3g%%)", c.Target*100)
}

// Plan implements mapreduce.Controller.
func (c *TargetError) Plan(v *mapreduce.JobView) (float64, mapreduce.PlanAction) {
	c.size(v, c.Pilot, c.PilotTasks, c.PilotRatio)
	return c.launch(v)
}

// Completed implements mapreduce.Controller.
func (c *TargetError) Completed(v *mapreduce.JobView) mapreduce.Directive {
	c.size(v, c.Pilot, c.PilotTasks, c.PilotRatio)
	switch c.at(v) {
	case eventFirst, eventBoundary:
		c.solve(v)
	case eventDrained:
		// The planned tasks have all finished. Verify the realized
		// bound: if it meets the user's target, drop everything still
		// pending; otherwise extend the plan with the (now much
		// richer) statistics — the closed loop that lets ApproxHadoop
		// meet the target in every run even when first-wave estimates
		// were noisy.
		if c.realizedMet(v) || v.Pending == 0 {
			return mapreduce.Directive{DropPending: true, SampleRatio: c.ratio}
		}
		c.solve(v)
		if c.planned <= v.Launched {
			// The re-solve believes the target is met but the
			// realized bound disagrees (estimation noise): run one
			// more wave-quarter of precise tasks to tighten.
			extra := v.TotalMapSlots / 4
			if extra < 1 {
				extra = 1
			}
			c.planned = v.Launched + extra
			c.ratio = 1
		}
	default:
		return mapreduce.Directive{}
	}
	return mapreduce.Directive{SampleRatio: c.ratio}
}

// realizedMet checks the job's current (realized) error bounds against
// the user's targets, without the planning slack. With no estimate to
// check (barrier mode: the reduces have consumed nothing) they read as
// met.
func (c *TargetError) realizedMet(v *mapreduce.JobView) bool {
	if v.Logics == nil {
		return true
	}
	view := mapreduce.EstimateView{
		TotalMaps:  v.TotalMaps,
		Dropped:    v.Dropped,
		Confidence: v.Confidence,
	}
	// The bound that counts by default is that of the key with the
	// greatest half-width, an exact tie going to the first key in
	// (partition, key) order as a scan of the sorted snapshot would pick
	// it; wPart is negative until a key has a positive half-width.
	wErr, wVal, wPart, wKey := 0.0, 0.0, -1, ""
	// met folds in one key; false settles the verdict as "not met".
	met := func(part int, key string, est stats.Estimate) bool {
		if c.Strict {
			return c.meets(est.Err, est.Value, 1)
		}
		if math.IsInf(est.Err, 1) || math.IsNaN(est.Err) {
			return false
		}
		//lint:ignore nofloateq see above: exact ties have a defined winner
		if est.Err > wErr || est.Err == wErr && wPart >= 0 && (part < wPart || part == wPart && key < wKey) {
			wErr, wVal, wPart, wKey = est.Err, est.Value, part, key
		}
		return true
	}
	for part, logic := range v.Logics() {
		if msr, ok := logic.(*MultiStageReducer); ok {
			d := msr.tally.Design(view)
			for i := range msr.table {
				if !met(part, msr.key(i), msr.estimate(&msr.table[i], &d)) {
					return false
				}
			}
			continue
		}
		for _, e := range logic.Estimates(view) {
			if !met(part, e.Key, e.Est) {
				return false
			}
		}
	}
	return c.meets(wErr, wVal, 1)
}

// solve runs the Section 4.4 optimization and stores the plan.
func (c *TargetError) solve(v *mapreduce.JobView) {
	c.solving(v)
	c.plan.gather(v)
	c.search(v)
}

// search stores the cheapest plan for the gathered table that meets the
// slack-tightened targets.
func (c *TargetError) search(v *mapreduce.JobView) {
	// Fallback: no approximation possible — run everything precisely.
	c.ratio = 1
	c.planned = 0
	if len(c.plan.stats) == 0 || v.Completed < 2 || v.AvgItems <= 0 {
		return
	}
	t0, tr, tp := v.CostParams()
	mbar := v.AvgItems
	n1 := v.Completed
	committed := v.Running // already launched, will complete regardless
	maxExtra := v.TotalMaps - v.Launched
	if maxExtra < 0 {
		maxExtra = 0
	}
	if !c.Strict {
		// A probe visits the front: one per grid ratio plus a binary
		// search over [committed, committed+maxExtra]. The front holds
		// for probes with n <= N, where every errHalf coefficient is >= 0.
		probes := len(ratioGrid) * (1 + bits.Len(uint(maxExtra)))
		if n1+committed+maxExtra > v.TotalMaps {
			probes = 0
		}
		c.plan.keepFront(probes)
	}

	bestRET := math.Inf(1)
	found := false
	var bestExtra int
	var bestRatio float64
	for _, ratio := range ratioGrid {
		m := math.Max(1, math.Round(ratio*mbar))
		hi := committed + maxExtra
		if !c.feasible(newProbe(v.TotalMaps, n1, hi, mbar, m, v.Confidence)) {
			continue
		}
		// Binary search the minimal feasible n2 in [committed, hi].
		lo := committed
		for lo < hi {
			mid := (lo + hi) / 2
			if c.feasible(newProbe(v.TotalMaps, n1, mid, mbar, m, v.Confidence)) {
				hi = mid
			} else {
				lo = mid + 1
			}
		}
		extra := lo - committed
		ret := float64(extra) * (t0 + mbar*tr + m*tp)
		if ret < bestRET {
			bestRET = ret
			bestExtra = extra
			bestRatio = m / mbar
			found = true
		}
	}
	if !found {
		return // keep precise fallback
	}
	if bestRatio > 1 {
		bestRatio = 1
	}
	c.ratio = bestRatio
	// planned == launched means everything still pending is dropped;
	// planned == 0 would read as unbounded in Plan, hence the floor.
	c.planned = v.Launched + bestExtra
	if c.planned < 1 {
		c.planned = 1
	}
}

// feasible reports whether the gathered keys meet the slack-tightened
// targets at the probe's plan: every key in Strict mode, otherwise the
// key with the maximum predicted absolute error (the paper's reported
// key), exact ties going to the first key in (partition, key) order.
// The worst key is sought on the plan's front alone (keepFront): no
// other key can be it, nor have a +Inf or NaN half-width while every
// front key's is finite.
func (c *TargetError) feasible(p probe) bool {
	keys := c.plan.stats
	if c.Strict {
		// Every key's own bound counts, and it depends on tau as well.
		for i := range keys {
			k := &keys[i]
			if !c.meets(p.errHalf(k.su2, k.withinDone, k.avgWithin), k.tau, planSlack) {
				return false
			}
		}
		return true
	}
	worst, worstErr := -1, 0.0
	for _, f := range c.plan.front {
		i := int(f)
		k := &keys[i]
		errHalf := p.errHalf(k.su2, k.withinDone, k.avgWithin)
		if math.IsInf(errHalf, 1) || math.IsNaN(errHalf) {
			return false
		}
		//lint:ignore nofloateq an exact tie goes to the first key in (partition, key) order, as a sorted scan would pick
		if errHalf > worstErr || errHalf == worstErr && worst >= 0 && c.plan.before(i, worst) {
			worst, worstErr = i, errHalf
		}
	}
	return worst < 0 || c.meets(worstErr, keys[worst].tau, planSlack)
}

// meets checks one key's half-width against the targets scaled by
// slack: the planning slack for a predicted half-width, 1 for a
// realized one.
func (c *TargetError) meets(errHalf, value, slack float64) bool {
	if math.IsInf(errHalf, 1) || math.IsNaN(errHalf) {
		return false
	}
	if c.Target > 0 {
		if value == 0 {
			if errHalf > 0 {
				return false
			}
		} else if errHalf > slack*c.Target*math.Abs(value) {
			return false
		}
	}
	if c.Absolute > 0 && errHalf > slack*c.Absolute {
		return false
	}
	return true
}

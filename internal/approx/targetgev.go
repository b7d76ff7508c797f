package approx

import (
	"fmt"

	"approxhadoop/internal/mapreduce"
)

// TargetErrorGEV is the target-error controller for extreme-value jobs
// (Section 4.5): every map runs precisely (dropping is the only
// mechanism — sampling an optimization search makes no sense), the
// reduce re-estimates the GEV bound as each map completes, and the
// moment every key's interval is inside the target the controller
// kills and drops all outstanding maps.
type TargetErrorGEV struct {
	// Target is the relative error bound (interval half-width over the
	// observed extreme).
	Target float64
	// Absolute, when positive, bounds the absolute half-width instead
	// of or in addition to Target.
	Absolute float64
	// MinMaps completed before a stop is considered (default: the
	// reducer's minimum GEV sample).
	MinMaps int

	stopped bool
}

// Name implements mapreduce.Controller.
func (c *TargetErrorGEV) Name() string {
	return fmt.Sprintf("target-error-gev(%.3g%%)", c.Target*100)
}

// Plan implements mapreduce.Controller.
func (c *TargetErrorGEV) Plan(*mapreduce.JobView) (float64, mapreduce.PlanAction) {
	if c.stopped {
		return 0, mapreduce.PlanDrop
	}
	return 1, mapreduce.PlanRun
}

// Completed implements mapreduce.Controller.
func (c *TargetErrorGEV) Completed(v *mapreduce.JobView) mapreduce.Directive {
	if c.stopped {
		return mapreduce.Directive{}
	}
	minMaps := c.MinMaps
	if minMaps <= 0 {
		minMaps = minSample
	}
	if v.Completed < minMaps {
		return mapreduce.Directive{}
	}
	ests := v.Estimates()
	if len(ests) == 0 {
		return mapreduce.Directive{}
	}
	bound := TargetError{Target: c.Target, Absolute: c.Absolute}
	for _, e := range ests {
		if !bound.meets(e.Est.Err, e.Est.Value, 1) {
			return mapreduce.Directive{}
		}
	}
	c.stopped = true
	return mapreduce.Directive{DropPending: true, KillRunning: true}
}

package approx

import (
	"math"
	"testing"

	"approxhadoop/internal/mapreduce"
	"approxhadoop/internal/stats"
)

// TestAbsoluteTargetBound drives the controller with an absolute
// half-width bound instead of a relative one.
func TestAbsoluteTargetBound(t *testing.T) {
	input, want := countInput(40, 400, 21)
	// Pick an absolute bound around 1% of the largest key's total.
	biggest := 0.0
	for _, v := range want {
		if v > biggest {
			biggest = v
		}
	}
	absTarget := biggest * 0.02
	job := sumJob(input, &TargetError{Absolute: absTarget})
	res, err := mapreduce.Run(approxEngine(), job)
	if err != nil {
		t.Fatal(err)
	}
	worstAbs := 0.0
	for _, o := range res.Outputs {
		if !math.IsInf(o.Est.Err, 1) && o.Est.Err > worstAbs {
			worstAbs = o.Est.Err
		}
	}
	if worstAbs > absTarget {
		t.Errorf("absolute bound %v exceeds target %v", worstAbs, absTarget)
	}
	if res.Counters.MapsCompleted >= res.Counters.MapsTotal {
		t.Errorf("a loose absolute target should allow approximation: %+v", res.Counters)
	}
}

// TestGEVAbsoluteTarget drives the extreme-value controller with an
// absolute bound.
func TestGEVAbsoluteTarget(t *testing.T) {
	// meets reports whether a fresh controller stops the job on one
	// key's estimate.
	meets := func(c TargetErrorGEV, errHalf, value float64) bool {
		v := &mapreduce.JobView{Completed: 8, Estimates: func() []mapreduce.KeyEstimate {
			return []mapreduce.KeyEstimate{{Key: "k", Est: stats.Estimate{Value: value, Err: errHalf}}}
		}}
		return c.Completed(v).DropPending
	}
	ctl := TargetErrorGEV{Absolute: 5, MinMaps: 3}
	if meets(ctl, 4, 100) != true {
		t.Error("4 <= 5 should meet")
	}
	if meets(ctl, 6, 100) != false {
		t.Error("6 > 5 should not meet")
	}
	if meets(ctl, math.Inf(1), 100) {
		t.Error("infinite bound never meets")
	}
	both := TargetErrorGEV{Target: 0.01, Absolute: 5}
	if meets(both, 4, 100) {
		t.Error("4 above 1 percent of 100 should fail the relative part")
	}
	if !meets(both, 0.5, 100) {
		t.Error("0.5 meets both bounds")
	}
}

package approx

import (
	"math"
	"testing"

	"approxhadoop/internal/mapreduce"
	"approxhadoop/internal/stats"
)

func TestMaxReducerEndToEnd(t *testing.T) {
	r := NewMaxReducer()
	if r.Min {
		t.Fatalf("max reducer config: %+v", r)
	}
	rng := stats.NewRand(7)
	view := mapreduce.EstimateView{TotalMaps: 60, Dropped: 30, Confidence: 0.95}
	obs := math.Inf(-1)
	for task := 0; task < 30; task++ {
		v := 100 + rng.NormFloat64()*10
		if v > obs {
			obs = v
		}
		r.Consume(mapOut(task, 1, 1, false, emitValues("max", v)))
	}
	out := r.Finalize(view)
	if len(out) != 1 || !stats.AlmostEqual(out[0].Est.Value, obs, 1e-12) {
		t.Fatalf("max output: %+v (obs %v)", out, obs)
	}
	if out[0].Est.Err <= 0 || math.IsInf(out[0].Est.Err, 1) {
		t.Errorf("max bound: %v", out[0].Est.Err)
	}
	if got, ok := r.Observed("max"); !ok || !stats.AlmostEqual(got, obs, 1e-12) {
		t.Errorf("Observed = %v %v", got, ok)
	}
}

func TestSampledUnitsAccumulates(t *testing.T) {
	r := NewMultiStageReducer(OpSum)
	r.Consume(mapOut(0, 100, 40, true, func(mapreduce.Emitter) {}))
	r.Consume(mapOut(1, 100, 25, true, func(mapreduce.Emitter) {}))
	if got := r.SampledUnits(); got != 65 {
		t.Errorf("SampledUnits = %d, want 65", got)
	}
}

func TestTargetErrorGEVPlanAfterStop(t *testing.T) {
	ctl := &TargetErrorGEV{Target: 0.5}
	ctl.stopped = true
	if _, action := ctl.Plan(&mapreduce.JobView{}); action != mapreduce.PlanDrop {
		t.Error("stopped controller should drop everything")
	}
	if d := ctl.Completed(&mapreduce.JobView{}); d.DropPending || d.KillRunning {
		t.Error("stopped controller should be quiescent")
	}
}

func TestTargetErrorGEVNoEstimates(t *testing.T) {
	ctl := &TargetErrorGEV{Target: 0.5, MinMaps: 1}
	v := &mapreduce.JobView{Completed: 5, Estimates: func() []mapreduce.KeyEstimate { return nil }}
	if d := ctl.Completed(v); d.DropPending {
		t.Error("no estimates: must not stop")
	}
	// Unmet estimate: keep running.
	v.Estimates = func() []mapreduce.KeyEstimate {
		return []mapreduce.KeyEstimate{{Key: "m", Est: stats.Estimate{Value: 10, Err: 9}}}
	}
	if d := ctl.Completed(v); d.DropPending {
		t.Error("wide bound: must not stop")
	}
}

func TestTargetErrorRealizedMetStrict(t *testing.T) {
	ctl := &TargetError{Target: 0.1, Strict: true}
	mk := func(ests []mapreduce.KeyEstimate) *mapreduce.JobView {
		return &mapreduce.JobView{Logics: func() []mapreduce.ReduceLogic {
			return []mapreduce.ReduceLogic{fixedEstimates(ests)}
		}}
	}
	ok := []mapreduce.KeyEstimate{
		{Key: "a", Est: stats.Estimate{Value: 100, Err: 5}},
		{Key: "b", Est: stats.Estimate{Value: 10, Err: 0.5}},
	}
	if !ctl.realizedMet(mk(ok)) {
		t.Error("all keys within 10% should meet strictly")
	}
	bad := append(ok, mapreduce.KeyEstimate{Key: "c", Est: stats.Estimate{Value: 1, Err: 0.5}})
	if ctl.realizedMet(mk(bad)) {
		t.Error("a 50% key should fail strict mode")
	}
	// No reduces, or reduces with nothing to report (barrier mode),
	// read as met.
	if !ctl.realizedMet(&mapreduce.JobView{}) || !ctl.realizedMet(mk(nil)) {
		t.Error("no estimates should be treated as met")
	}
}

// fixedEstimates is a ReduceLogic that is not a MultiStageReducer: it
// reports the same estimates whatever it is asked.
type fixedEstimates []mapreduce.KeyEstimate

func (fixedEstimates) Consume(*mapreduce.MapOutput) {}
func (f fixedEstimates) Estimates(mapreduce.EstimateView) []mapreduce.KeyEstimate {
	return f
}
func (f fixedEstimates) Finalize(mapreduce.EstimateView) []mapreduce.KeyEstimate {
	return f
}

package approx

import (
	"math"

	"approxhadoop/internal/mapreduce"
)

// ratioGrid is the sampling-ratio candidates the planners scan for the
// per-task sample size m.
var ratioGrid = [...]float64{1, 0.75, 0.5, 0.25, 0.1, 0.05, 0.025, 0.01, 0.005, 0.002, 0.001}

// planSlack multiplies the user's bound while planning: a plan is
// derived from noisy first-wave or pilot statistics, so TargetError
// plans against a slightly tighter error bound and DeadlineSLO against
// a slightly earlier deadline (which also leaves the reduces time to
// finalize after the last map). The realized bound is checked at the
// user's own value.
const planSlack = 0.8

// waves is the skeleton TargetError and DeadlineSLO share (Section
// 4.4): a first wave of maps gathers statistics — precisely, or as a
// cheap pilot at a small sampling ratio — then a plan of how many maps
// to launch at which ratio is solved from them and re-derived at every
// wave boundary with the accumulated statistics.
type waves struct {
	firstWave  int     // maps in the first wave; 0 until the job is seen
	firstRatio float64 // sampling ratio of first-wave launches
	ratio      float64 // sampling ratio for post-solve launches
	planned    int     // total maps to launch; 0 = unbounded
	solved     bool
	solveAt    int // completed count that triggers the next re-solve
	plan       planTable
}

// size fixes the first wave on the job's first call: with pilot, tasks
// maps (default 1/4 of the map slots, min 2) at ratio (default 0.01);
// otherwise one precise wave of the map slots. Either is capped at the
// job's maps.
func (w *waves) size(v *mapreduce.JobView, pilot bool, tasks int, ratio float64) {
	if w.firstWave > 0 {
		return
	}
	if !pilot {
		w.firstWave, w.firstRatio = min(v.TotalMapSlots, v.TotalMaps), 1
		return
	}
	if tasks <= 0 {
		tasks = max(v.TotalMapSlots/4, 2)
	}
	if ratio <= 0 || ratio > 1 {
		ratio = 0.01
	}
	w.firstWave, w.firstRatio = min(tasks, v.TotalMaps), ratio
}

// launch is both controllers' Plan. The first wave runs at its ratio
// and, once fully launched, waits for its statistics. After a solve,
// launches run at the plan's ratio; past the plan the remaining tasks
// stay pending (rather than being dropped outright) until Completed
// either drops them or extends the plan.
func (w *waves) launch(v *mapreduce.JobView) (float64, mapreduce.PlanAction) {
	if !w.solved {
		if v.Launched < w.firstWave {
			return w.firstRatio, mapreduce.PlanRun
		}
		return 0, mapreduce.PlanDefer
	}
	if w.planned > 0 && v.Launched >= w.planned {
		return 0, mapreduce.PlanDefer
	}
	return w.ratio, mapreduce.PlanRun
}

// event is what a map completion means to the plan.
type event int

const (
	eventNone     event = iota
	eventFirst          // the first wave has completed: solve
	eventDrained        // every planned task has finished: check the plan
	eventBoundary       // a wave boundary short of the plan: refine it
)

// at classifies the completion v reports.
func (w *waves) at(v *mapreduce.JobView) event {
	switch {
	case !w.solved:
		if v.Completed >= w.firstWave {
			return eventFirst
		}
	case w.planned > 0 && v.Launched >= w.planned:
		if v.Running == 0 {
			return eventDrained
		}
	case v.Completed >= w.solveAt:
		return eventBoundary
	}
	return eventNone
}

// solving marks a solve at v and sets the next wave boundary.
func (w *waves) solving(v *mapreduce.JobView) {
	w.solved = true
	w.solveAt = v.Completed + v.TotalMapSlots
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
	view := mapreduce.EstimateView{TotalMaps: v.TotalMaps, Dropped: v.Dropped, Confidence: v.Confidence}
	for part, msr := range t.reducers {
		if msr != nil {
			t.stats = msr.appendPlanStats(t.stats, int32(part), view)
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
	r := t.reducers[a.part]
	return r.key(int(a.slot)) < r.key(int(b.slot))
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

package approx

import (
	"strings"
	"testing"

	"approxhadoop/internal/mapreduce"
)

// slowView builds a synthetic JobView with fixed cost parameters for
// exercising the DeadlineSLO planner without a cluster.
func slowView(totalMaps, slots, launched, completed, running int, elapsed float64) *mapreduce.JobView {
	return &mapreduce.JobView{
		TotalMaps:     totalMaps,
		TotalMapSlots: slots,
		Launched:      launched,
		Completed:     completed,
		Running:       running,
		Pending:       totalMaps - launched,
		Confidence:    0.95,
		Elapsed:       elapsed,
		AvgItems:      100,
		CostParams:    func() (float64, float64, float64) { return 0.1, 0.001, 0.002 },
	}
}

func TestDeadlineSLOPilotPhase(t *testing.T) {
	c := &DeadlineSLO{Deadline: 100, PilotTasks: 4, PilotRatio: 0.02}
	v := slowView(64, 8, 0, 0, 0, 0)

	ratio, action := c.Plan(v)
	if action != mapreduce.PlanRun || !(ratio < 0.021) || !(ratio > 0.019) {
		t.Fatalf("pilot launch: got (%v, %v)", ratio, action)
	}
	v.Launched = 4
	if _, action = c.Plan(v); action != mapreduce.PlanDefer {
		t.Fatalf("pilot fully launched should defer, got %v", action)
	}
	// Mid-pilot completions are quiet.
	v.Completed = 2
	if d := c.Completed(v); d.DropPending || d.Abort != nil {
		t.Fatalf("mid-pilot directive should be empty, got %+v", d)
	}
}

func TestDeadlineSLOPlansWithinBudget(t *testing.T) {
	c := &DeadlineSLO{Deadline: 100, PilotTasks: 4, PilotRatio: 0.02}
	v := slowView(64, 8, 4, 4, 0, 1)

	d := c.Completed(v)
	if d.Abort != nil || d.DropPending {
		t.Fatalf("ample budget should plan launches, got %+v", d)
	}
	if d.SampleRatio <= 0 || d.SampleRatio > 1 {
		t.Fatalf("planned ratio %v out of range", d.SampleRatio)
	}
	ratio, action := c.Plan(v)
	if action != mapreduce.PlanRun {
		t.Fatalf("post-solve Plan should run, got %v", action)
	}
	if !(ratio > 0) || ratio > 1 {
		t.Fatalf("post-solve ratio %v", ratio)
	}
	// With ~80s of budget and map time around 0.1+0.1+m*0.002 the whole
	// job fits: the plan should extend well past the pilot.
	if c.planned <= 4 {
		t.Fatalf("plan stuck at pilot: planned %d", c.planned)
	}
}

func TestDeadlineSLOExhaustedBudgetDrops(t *testing.T) {
	c := &DeadlineSLO{Deadline: 10, PilotTasks: 4, PilotRatio: 0.02}
	// Pilot done, but virtual time already past planSlack*Deadline.
	v := slowView(64, 8, 4, 4, 0, 9.5)
	d := c.Completed(v)
	if d.Abort != nil {
		t.Fatalf("two clusters completed: should degrade, not abort (%v)", d.Abort)
	}
	if !d.DropPending {
		t.Fatalf("exhausted budget should drop pending, got %+v", d)
	}
}

func TestDeadlineSLOInfeasibleAborts(t *testing.T) {
	c := &DeadlineSLO{Deadline: 10, PilotTasks: 1, PilotRatio: 0.02}
	// Only one cluster done when the budget runs out: no valid interval
	// is possible.
	v := slowView(64, 8, 1, 1, 0, 9.5)
	d := c.Completed(v)
	if d.Abort == nil {
		t.Fatalf("want abort, got %+v", d)
	}
	if !strings.Contains(d.Abort.Error(), "infeasible") {
		t.Errorf("abort error %q does not say infeasible", d.Abort)
	}
}

func TestDeadlineSLOBestEffortNeverAborts(t *testing.T) {
	c := &DeadlineSLO{Deadline: 10, PilotTasks: 1, PilotRatio: 0.02, BestEffort: true}
	v := slowView(64, 8, 1, 1, 0, 9.5)
	d := c.Completed(v)
	if d.Abort != nil {
		t.Fatalf("best effort must not abort: %v", d.Abort)
	}
	if !d.DropPending {
		t.Fatalf("best effort should finish with what it has, got %+v", d)
	}
}

func TestDeadlineSLOReplansAtWaveBoundary(t *testing.T) {
	c := &DeadlineSLO{Deadline: 1000, PilotTasks: 4, PilotRatio: 0.02}
	v := slowView(640, 8, 4, 4, 0, 1)
	if d := c.Completed(v); d.Abort != nil {
		t.Fatal(d.Abort)
	}
	firstPlan := c.planned
	// A wave of completions later (solveAt = 4+8) with launches still
	// below the plan, the boundary triggers a re-solve.
	v = slowView(640, 8, 20, 12, 0, 2)
	if d := c.Completed(v); d.Abort != nil {
		t.Fatal(d.Abort)
	}
	if c.planned < firstPlan {
		t.Errorf("replan shrank the plan with budget to spare: %d -> %d", firstPlan, c.planned)
	}
}

func TestDeadlineSLOName(t *testing.T) {
	c := &DeadlineSLO{Deadline: 30}
	if !strings.Contains(c.Name(), "deadline-slo") {
		t.Errorf("name %q", c.Name())
	}
}

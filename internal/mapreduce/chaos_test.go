package mapreduce

import (
	"math/rand"
	"os"
	"strconv"
	"testing"

	"approxhadoop/internal/cluster"
	"approxhadoop/internal/stats"
)

// chaosController makes random decisions on every hook: random
// sampling ratios, random drops/defers, random kills. Whatever it
// does, the scheduler must uphold its invariants.
type chaosController struct {
	rng *rand.Rand
}

func (c *chaosController) Name() string { return "chaos" }

func (c *chaosController) Plan(v *JobView) (float64, PlanAction) {
	switch c.rng.Intn(10) {
	case 0:
		return 0, PlanDrop
	case 1:
		return 0, PlanDefer
	default:
		return 0.05 + c.rng.Float64()*0.95, PlanRun
	}
}

func (c *chaosController) Completed(v *JobView) Directive {
	d := Directive{}
	switch c.rng.Intn(12) {
	case 0:
		d.DropPending = true
	case 1:
		d.DropPending = true
		d.KillRunning = true
	case 3:
		d.SampleRatio = c.rng.Float64()
	}
	// Exercise the view accessors too.
	_ = v.Estimates()
	_, _, _ = v.CostParams()
	return d
}

// TestChaosControllerInvariants runs many jobs under a randomized
// controller and verifies the scheduler's accounting invariants hold
// in every case.
func TestChaosControllerInvariants(t *testing.T) {
	input, _ := wordCountInput(t, 64)
	for trial := 0; trial < 30; trial++ {
		cfg := cluster.DefaultConfig()
		cfg.Servers = 2 + trial%3
		cfg.MapSlotsPerServer = 1 + trial%4
		cfg.StragglerProb = float64(trial%3) * 0.2
		cfg.StragglerFactor = 5
		cfg.Seed = int64(trial)
		eng := cluster.New(cfg)

		var events []Event
		job := &Job{
			Input:       input,
			NewMapper:   wordCountMapper,
			NewReduce:   func(int) ReduceLogic { return SumReduce() },
			Controller:  &chaosController{rng: stats.NewRand(int64(trial) * 31)},
			Cost:        cluster.AnalyticCost{T0: 1, Tr: 0.001, Tp: 0.01},
			Seed:        int64(trial),
			Speculation: trial%2 == 0,
			SleepIdle:   trial%3 == 0,
			Trace:       func(e Event) { events = append(events, e) },
		}
		res, err := runCounted(t, eng, job)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		c := res.Counters

		// Invariant: every logical task is accounted for exactly once.
		if c.MapsCompleted+c.MapsDropped > c.MapsTotal {
			t.Errorf("trial %d: completed %d + dropped-unlaunched %d exceeds total %d",
				trial, c.MapsCompleted, c.MapsDropped, c.MapsTotal)
		}
		// Killed-without-completion tasks are the remaining gap.
		accounted := c.MapsCompleted + c.MapsDropped
		if gap := c.MapsTotal - accounted; gap > c.MapsKilled {
			t.Errorf("trial %d: %d tasks unaccounted (killed=%d): %+v", trial, gap, c.MapsKilled, c)
		}
		// Invariant: no slot leaks — all servers idle at the end.
		for _, s := range eng.Servers() {
			if s.Busy(cluster.MapSlot) != 0 || s.Busy(cluster.ReduceSlot) != 0 {
				t.Errorf("trial %d: slot leak on %s", trial, s.ID)
			}
		}
		// Invariant: virtual time and energy are finite and positive.
		if !(res.Runtime >= 0) || !(res.EnergyWh >= 0) {
			t.Errorf("trial %d: runtime %v energy %v", trial, res.Runtime, res.EnergyWh)
		}
		// Invariant: outputs sorted by key.
		for i := 1; i < len(res.Outputs); i++ {
			if res.Outputs[i-1].Key > res.Outputs[i].Key {
				t.Fatalf("trial %d: outputs unsorted", trial)
			}
		}
		// Trace invariants: events in non-decreasing virtual time,
		// exactly one job-completed event at the end.
		jobDone := 0
		for i, e := range events {
			if i > 0 && e.Time < events[i-1].Time-1e-9 {
				t.Fatalf("trial %d: trace time went backwards at %d", trial, i)
			}
			if e.Kind == EventJobCompleted {
				jobDone++
			}
		}
		if jobDone != 1 {
			t.Errorf("trial %d: %d job-completed events", trial, jobDone)
		}
		// Launch/completion pairing: a completion/kill for every launch.
		launches, terminations := 0, 0
		for _, e := range events {
			switch e.Kind {
			case EventMapLaunched, EventMapSpeculated:
				launches++
			case EventMapCompleted, EventMapKilled:
				terminations++
			}
		}
		if launches != terminations {
			t.Errorf("trial %d: %d launches vs %d terminations", trial, launches, terminations)
		}
	}
}

// chaosSeedBase returns the base seed for fault-plan chaos trials.
// CI's seed matrix sets APPROX_CHAOS_SEED to sweep disjoint seed
// ranges; locally it defaults to 0.
func chaosSeedBase(t *testing.T) int64 {
	v := os.Getenv("APPROX_CHAOS_SEED")
	if v == "" {
		return 0
	}
	n, err := strconv.ParseInt(v, 10, 64)
	if err != nil {
		t.Fatalf("APPROX_CHAOS_SEED=%q: %v", v, err)
	}
	return n
}

// TestChaosUnderFaultPlan runs jobs under randomized fault plans
// (task faults, fail-stops, slowdowns, rack failures, recoveries) and
// verifies the scheduler's invariants. With DegradeToDrop off and
// unlimited retries, every completing job must produce exact results:
// faults may cost time, never correctness.
func TestChaosUnderFaultPlan(t *testing.T) {
	input, want := wordCountInput(t, 64)
	base := chaosSeedBase(t)
	for trial := 0; trial < 25; trial++ {
		seed := base*1000 + int64(trial)
		cfg := cluster.DefaultConfig()
		cfg.Servers = 4
		cfg.MapSlotsPerServer = 2
		cfg.Seed = seed
		eng := cluster.New(cfg)

		degrade := trial%2 == 1
		// Reduces land round-robin on servers 0 and 1; protect them
		// from fail-stops (reduce state is not replicated) so the only
		// acceptable outcome is completion.
		plan := cluster.RandomFaultPlan(seed*7+1, 3+trial%4, cfg.Servers, 4.0, 0, 1)
		var events []Event
		job := &Job{
			Input:         input,
			NewMapper:     wordCountMapper,
			NewReduce:     func(int) ReduceLogic { return SumReduce() },
			Reduces:       2,
			Cost:          cluster.AnalyticCost{T0: 1, Tr: 0.001, Tp: 0.001},
			Seed:          seed,
			Speculation:   trial%3 == 0,
			SleepIdle:     trial%5 == 0,
			Faults:        &plan,
			DegradeToDrop: degrade,
			Retry: RetryPolicy{
				MaxAttemptsPerTask: map[bool]int{false: 0, true: 3}[degrade],
				Backoff:            float64(trial%3) * 0.5,
				BlacklistAfter:     map[bool]int{false: 0, true: 4}[degrade],
			},
			Trace: func(e Event) { events = append(events, e) },
		}
		res, err := runCounted(t, eng, job)
		if err != nil {
			t.Fatalf("trial %d (seed %d): %v", trial, seed, err)
		}
		c := res.Counters

		// Accounting: every logical task completes or is degraded
		// (nothing is dropped/killed by a controller here).
		if c.MapsCompleted+c.MapsDegraded != c.MapsTotal {
			t.Errorf("trial %d: completed %d + degraded %d != total %d",
				trial, c.MapsCompleted, c.MapsDegraded, c.MapsTotal)
		}
		if !degrade && c.MapsDegraded != 0 {
			t.Errorf("trial %d: degraded %d tasks with DegradeToDrop off", trial, c.MapsDegraded)
		}
		// Launch/termination pairing: failures count as terminations.
		launches, terminations := 0, 0
		for _, e := range events {
			switch e.Kind {
			case EventMapLaunched, EventMapSpeculated:
				launches++
			case EventMapCompleted, EventMapKilled, EventMapFailed:
				terminations++
			}
		}
		if launches != terminations {
			t.Errorf("trial %d: %d launches vs %d terminations", trial, launches, terminations)
		}
		// No slot leaks on surviving servers.
		for _, s := range eng.Servers() {
			if s.Dead() {
				continue
			}
			if s.Busy(cluster.MapSlot) != 0 || s.Busy(cluster.ReduceSlot) != 0 {
				t.Errorf("trial %d: slot leak on %s", trial, s.ID)
			}
		}
		// Correctness: exact results whenever nothing was degraded.
		if c.MapsDegraded == 0 {
			for _, o := range res.Outputs {
				if !o.Exact || !stats.AlmostEqual(o.Est.Value, want[o.Key], 1e-9) {
					t.Errorf("trial %d: %s = %v exact=%v, want exact %v",
						trial, o.Key, o.Est.Value, o.Exact, want[o.Key])
				}
			}
		} else {
			for _, o := range res.Outputs {
				if o.Exact {
					t.Errorf("trial %d: exact output %s despite %d degraded maps",
						trial, o.Key, c.MapsDegraded)
				}
			}
		}
	}
}

// TestChaosFaultPlanDeterministic replays one faulted trial twice and
// requires identical traces: fault injection must be as reproducible
// as the rest of the simulator.
func TestChaosFaultPlanDeterministic(t *testing.T) {
	input, _ := wordCountInput(t, 64)
	runOnce := func() []Event {
		cfg := cluster.DefaultConfig()
		cfg.Servers = 4
		cfg.MapSlotsPerServer = 2
		cfg.Seed = 5
		eng := cluster.New(cfg)
		plan := cluster.RandomFaultPlan(42, 5, cfg.Servers, 4.0, 0, 1)
		var events []Event
		job := &Job{
			Input:         input,
			NewMapper:     wordCountMapper,
			NewReduce:     func(int) ReduceLogic { return SumReduce() },
			Reduces:       2,
			Cost:          cluster.AnalyticCost{T0: 1, Tr: 0.001, Tp: 0.001},
			Seed:          5,
			Faults:        &plan,
			DegradeToDrop: true,
			Retry:         RetryPolicy{MaxAttemptsPerTask: 2, Backoff: 0.5, BlacklistAfter: 3},
			Trace:         func(e Event) { events = append(events, e) },
		}
		if _, err := runCounted(t, eng, job); err != nil {
			t.Fatal(err)
		}
		return events
	}
	a, b := runOnce(), runOnce()
	if len(a) != len(b) {
		t.Fatalf("trace lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("trace diverges at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

// TestTraceEventStrings covers the String methods.
func TestTraceEventStrings(t *testing.T) {
	kinds := []EventKind{EventMapLaunched, EventMapCompleted, EventMapKilled,
		EventMapDropped, EventMapSpeculated, EventMapFailed, EventMapRetried,
		EventMapDegraded, EventServerBlacklisted, EventReduceFinished,
		EventJobCompleted, EventKind(99)}
	for _, k := range kinds {
		if k.String() == "" {
			t.Errorf("empty string for kind %d", k)
		}
	}
	e := Event{Kind: EventMapLaunched, Time: 1.5, Task: 3, Server: "s", Ratio: 0.5}
	if e.String() == "" {
		t.Error("empty event string")
	}
}

// TestDeterministicTrace verifies the whole schedule is reproducible.
func TestDeterministicTrace(t *testing.T) {
	input, _ := wordCountInput(t, 128)
	runOnce := func() []Event {
		var events []Event
		job := &Job{
			Input:     input,
			NewMapper: wordCountMapper,
			NewReduce: func(int) ReduceLogic { return SumReduce() },
			Cost:      cluster.AnalyticCost{T0: 1, Tr: 0.001, Tp: 0.01},
			Seed:      99,
			Trace:     func(e Event) { events = append(events, e) },
		}
		if _, err := Run(testEngine(), job); err != nil {
			t.Fatal(err)
		}
		return events
	}
	a, b := runOnce(), runOnce()
	if len(a) != len(b) {
		t.Fatalf("trace lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("trace diverges at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

// runCounted is Run with the tracker's per-state task counts — what
// pendingCount and runningCount now read — compared with a fresh scan
// of the task states at every trace event the job emits and after every
// engine event. The chaos, failure and degrade tests run through it, so
// all eight setState call sites are crossed.
func runCounted(t *testing.T, eng *cluster.Engine, job *Job) (*Result, error) {
	t.Helper()
	var tr *tracker
	check := func(when string) {
		if tr == nil {
			return // still inside Start
		}
		var scan [4]int
		for _, st := range tr.state {
			scan[st]++
		}
		if scan != tr.inState {
			t.Fatalf("%s: state counts %v, a scan of the %d task states gives %v", when, tr.inState, len(tr.state), scan)
		}
	}
	inner := job.Trace
	job.Trace = func(e Event) {
		check(e.String())
		if inner != nil {
			inner(e)
		}
	}
	defer func() { job.Trace = inner }()
	h, err := Start(eng, job, StartOptions{})
	if err != nil {
		return nil, err
	}
	tr = h.t
	check("after Start")
	for eng.Step() {
		check("after an engine event")
	}
	eng.Run() // the queue is empty: this only settles energy accrual, as Run would
	return h.Outcome()
}

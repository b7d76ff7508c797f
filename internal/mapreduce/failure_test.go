package mapreduce

import (
	"strings"
	"testing"

	"approxhadoop/internal/cluster"
	"approxhadoop/internal/stats"
)

// TestMapTaskReexecutionOnServerFailure fail-stops a server mid-job
// and verifies its map tasks are re-executed elsewhere with correct
// final results.
func TestMapTaskReexecutionOnServerFailure(t *testing.T) {
	input, want := wordCountInput(t, 64)
	cfg := cluster.DefaultConfig()
	cfg.Servers = 4
	cfg.MapSlotsPerServer = 2
	eng := cluster.New(cfg)
	// Reduces are placed round-robin from server 0; with Reduces=2 they
	// land on servers 0 and 1, so server 3 is a map-only victim. Fail
	// it midway through the first wave.
	eng.ScheduleFailure(eng.Servers()[3], 0.5)

	var failures int
	job := &Job{
		Input:     input,
		NewMapper: wordCountMapper,
		NewReduce: func(int) ReduceLogic { return SumReduce() },
		Reduces:   2,
		Cost:      cluster.AnalyticCost{T0: 1, Tr: 0.001, Tp: 0.001},
		Seed:      4,
		Trace: func(e Event) {
			if e.Kind == EventMapFailed {
				failures++
			}
		},
	}
	res, err := runCounted(t, eng, job)
	if err != nil {
		t.Fatal(err)
	}
	if failures == 0 {
		t.Fatal("expected map attempts lost to the failure")
	}
	if res.Counters.MapsFailed != failures {
		t.Errorf("counter %d != trace %d", res.Counters.MapsFailed, failures)
	}
	if res.Counters.MapsCompleted != res.Counters.MapsTotal {
		t.Errorf("all logical maps should complete despite the failure: %+v", res.Counters)
	}
	for _, o := range res.Outputs {
		if !stats.AlmostEqual(o.Est.Value, want[o.Key], 1e-9) {
			t.Errorf("%s = %v, want %v (results must survive failures)", o.Key, o.Est.Value, want[o.Key])
		}
		if !o.Exact {
			t.Errorf("failure recovery must not mark results approximate")
		}
	}
}

// TestReduceServerFailureFailsJob documents the limitation: reduce
// state is not replicated, so losing a reduce-hosting server aborts.
func TestReduceServerFailureFailsJob(t *testing.T) {
	input, _ := wordCountInput(t, 64)
	cfg := cluster.DefaultConfig()
	cfg.Servers = 4
	cfg.MapSlotsPerServer = 2
	eng := cluster.New(cfg)
	// Reduces are placed round-robin from server 0; with Reduces=1 the
	// only reduce lands on server 0.
	eng.ScheduleFailure(eng.Servers()[0], 1.0)
	job := &Job{
		Input:     input,
		NewMapper: wordCountMapper,
		NewReduce: func(int) ReduceLogic { return SumReduce() },
		Reduces:   1,
		Cost:      cluster.AnalyticCost{T0: 5, Tr: 0.001, Tp: 0.001},
	}
	_, err := runCounted(t, eng, job)
	if err == nil {
		t.Fatal("losing the reduce server should fail the job")
	}
	// The error must identify the lost partition and the failed server.
	if !strings.Contains(err.Error(), "reduce partition") || !strings.Contains(err.Error(), "server-00") {
		t.Errorf("want a descriptive reduce-loss error, got: %v", err)
	}
}

// TestReduceServerFailureEvenWithDegrade: DegradeToDrop covers map-side
// losses only; reduce state is unreplicated, so losing a reduce host
// still aborts with the same descriptive error.
func TestReduceServerFailureEvenWithDegrade(t *testing.T) {
	input, _ := wordCountInput(t, 64)
	cfg := cluster.DefaultConfig()
	cfg.Servers = 4
	cfg.MapSlotsPerServer = 2
	eng := cluster.New(cfg)
	eng.ScheduleFailure(eng.Servers()[0], 1.0)
	job := &Job{
		Input:         input,
		NewMapper:     wordCountMapper,
		NewReduce:     func(int) ReduceLogic { return SumReduce() },
		Reduces:       1,
		Cost:          cluster.AnalyticCost{T0: 5, Tr: 0.001, Tp: 0.001},
		DegradeToDrop: true,
	}
	_, err := runCounted(t, eng, job)
	if err == nil {
		t.Fatal("reduce loss is unrecoverable even under DegradeToDrop")
	}
	if !strings.Contains(err.Error(), "reduce partition") {
		t.Errorf("want a descriptive reduce-loss error, got: %v", err)
	}
}

// TestServerFailureAfterCompletionHarmless schedules a failure on the
// engine timeline past the job's end: the job must be unaffected.
func TestServerFailureAfterCompletionHarmless(t *testing.T) {
	input, want := wordCountInput(t, 64)
	cfg := cluster.DefaultConfig()
	cfg.Servers = 4
	cfg.MapSlotsPerServer = 2
	eng := cluster.New(cfg)
	eng.ScheduleFailure(eng.Servers()[0], 1e6)
	job := &Job{
		Input:     input,
		NewMapper: wordCountMapper,
		NewReduce: func(int) ReduceLogic { return SumReduce() },
		Reduces:   2,
		Cost:      cluster.AnalyticCost{T0: 1, Tr: 0.001, Tp: 0.001},
	}
	res, err := runCounted(t, eng, job)
	if err != nil {
		t.Fatal(err)
	}
	if res.Counters.MapsFailed != 0 || res.Counters.MapsCompleted != res.Counters.MapsTotal {
		t.Errorf("post-completion failure must not affect the job: %+v", res.Counters)
	}
	for _, o := range res.Outputs {
		if !o.Exact || !stats.AlmostEqual(o.Est.Value, want[o.Key], 1e-9) {
			t.Errorf("%s = %v exact=%v, want exact %v", o.Key, o.Est.Value, o.Exact, want[o.Key])
		}
	}
}

// TestAllServersFailed verifies the job aborts cleanly when no capacity
// remains.
func TestAllServersFailed(t *testing.T) {
	input, _ := wordCountInput(t, 64)
	cfg := cluster.DefaultConfig()
	cfg.Servers = 2
	cfg.MapSlotsPerServer = 1
	eng := cluster.New(cfg)
	// Kill the non-reduce-hosting server mid-run and the reduce host
	// later; between them every map slot disappears.
	eng.ScheduleFailure(eng.Servers()[1], 0.5)
	eng.ScheduleFailure(eng.Servers()[0], 1.0)
	job := &Job{
		Input:     input,
		NewMapper: wordCountMapper,
		NewReduce: func(int) ReduceLogic { return SumReduce() },
		Reduces:   1,
		Cost:      cluster.AnalyticCost{T0: 10, Tr: 0.01, Tp: 0.01},
	}
	if _, err := runCounted(t, eng, job); err == nil {
		t.Fatal("a fully failed cluster should produce an error")
	}
}

// TestFailServerIdempotent covers double-failure and energy behavior.
func TestFailServerIdempotent(t *testing.T) {
	cfg := cluster.DefaultConfig()
	cfg.Servers = 2
	eng := cluster.New(cfg)
	s := eng.Servers()[0]
	eng.FailServer(s)
	eng.FailServer(s) // no-op
	if !s.Dead() || s.FreeSlots(cluster.MapSlot) != 0 {
		t.Error("dead server should expose no capacity")
	}
	// Dead servers draw no power: 100s with one dead, one idle.
	eng.At(100, func() {})
	eng.Run()
	want := 100 * cfg.IdleWatts
	if got := eng.EnergyJoules(); !stats.AlmostEqual(got, want, 1e-9) {
		t.Errorf("energy %v, want %v (dead server draws nothing)", got, want)
	}
}

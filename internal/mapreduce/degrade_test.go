package mapreduce

import (
	"strings"
	"testing"

	"approxhadoop/internal/cluster"
	"approxhadoop/internal/dfs"
	"approxhadoop/internal/stats"
)

// faultJob builds a small wordcount job over input with the given
// retry/degradation settings.
func faultJob(input *dfs.File, retry RetryPolicy, degrade bool) *Job {
	return &Job{
		Name:          "fault-wordcount",
		Input:         input,
		NewMapper:     wordCountMapper,
		NewReduce:     func(int) ReduceLogic { return SumReduce() },
		Reduces:       2,
		Cost:          cluster.AnalyticCost{T0: 1, Tr: 0.001, Tp: 0.001},
		Seed:          17,
		Retry:         retry,
		DegradeToDrop: degrade,
	}
}

// TestDegradeToDropOnExhaustedRetries injects transient task faults
// with a one-attempt budget: every faulted task must fold into the
// dropped-cluster count and the job must complete approximately.
func TestDegradeToDropOnExhaustedRetries(t *testing.T) {
	input, want := wordCountInput(t, 64)
	eng := testEngine()
	// A burst of transient task faults across the first wave.
	var faults []cluster.Fault
	for i := 0; i < 6; i++ {
		faults = append(faults, cluster.Fault{At: 0.5 + 0.3*float64(i), Kind: cluster.FaultTask, Server: i % 4})
	}
	job := faultJob(input, RetryPolicy{MaxAttemptsPerTask: 1}, true)
	job.Faults = &cluster.FaultPlan{Faults: faults}
	res, err := runCounted(t, eng, job)
	if err != nil {
		t.Fatal(err)
	}
	c := res.Counters
	if c.MapsDegraded == 0 {
		t.Fatal("expected degraded tasks (no fault hit a running attempt?)")
	}
	if c.MapsFailed < c.MapsDegraded {
		t.Errorf("degraded %d tasks but only %d failed attempts", c.MapsDegraded, c.MapsFailed)
	}
	if c.MapsCompleted+c.MapsDegraded != c.MapsTotal {
		t.Errorf("accounting: completed %d + degraded %d != total %d", c.MapsCompleted, c.MapsDegraded, c.MapsTotal)
	}
	for _, o := range res.Outputs {
		if o.Exact {
			t.Errorf("key %s: degraded job must not report exact results", o.Key)
		}
	}
	// Sanity: the surviving data still resembles the truth.
	for _, o := range res.Outputs {
		if o.Est.Value <= 0 || o.Est.Value > 2*want[o.Key] {
			t.Errorf("key %s: estimate %v implausible vs truth %v", o.Key, o.Est.Value, want[o.Key])
		}
	}
}

// TestExhaustedRetriesFailWithoutDegrade is the same scenario with
// DegradeToDrop off: the job must fail with a descriptive error.
func TestExhaustedRetriesFailWithoutDegrade(t *testing.T) {
	input, _ := wordCountInput(t, 64)
	eng := testEngine()
	job := faultJob(input, RetryPolicy{MaxAttemptsPerTask: 1}, false)
	job.Faults = &cluster.FaultPlan{Faults: []cluster.Fault{
		{At: 0.5, Kind: cluster.FaultTask, Server: 0},
	}}
	_, err := runCounted(t, eng, job)
	if err == nil {
		t.Fatal("exhausted attempts without DegradeToDrop must fail the job")
	}
	if !strings.Contains(err.Error(), "MaxAttemptsPerTask") {
		t.Errorf("error should name the policy: %v", err)
	}
}

// TestRetryBackoffDelaysReexecution verifies the virtual-time backoff:
// the relaunch of a faulted task happens no sooner than Backoff after
// the failure, and doubles on repeat failures.
func TestRetryBackoffDelaysReexecution(t *testing.T) {
	input, _ := wordCountInput(t, 512) // few blocks, low parallel noise
	eng := testEngine()
	var events []Event
	job := faultJob(input, RetryPolicy{Backoff: 4}, false)
	job.Trace = func(e Event) { events = append(events, e) }
	job.Faults = &cluster.FaultPlan{Faults: []cluster.Fault{
		{At: 0.5, Kind: cluster.FaultTask, Server: 0},
	}}
	res, err := runCounted(t, eng, job)
	if err != nil {
		t.Fatal(err)
	}
	if res.Counters.MapsRetried == 0 {
		t.Fatal("expected a retried task")
	}
	// Find the failed task and compare failure time vs next launch.
	var failT, nextLaunch float64
	var failTask = -1
	for _, e := range events {
		if e.Kind == EventMapFailed && failTask == -1 {
			failTask, failT = e.Task, e.Time
		}
		if e.Kind == EventMapLaunched && e.Task == failTask && e.Time > failT && nextLaunch == 0 {
			nextLaunch = e.Time
		}
	}
	if failTask == -1 || nextLaunch == 0 {
		t.Fatalf("trace missing failure/relaunch pair: %v", events)
	}
	if nextLaunch-failT < 4 {
		t.Errorf("relaunch after %.2fs, want >= Backoff of 4s", nextLaunch-failT)
	}
	if res.Counters.MapsCompleted != res.Counters.MapsTotal {
		t.Errorf("all tasks should complete eventually: %+v", res.Counters)
	}
}

// TestBlacklistAfterRepeatedFaults verifies a server accumulating
// faults is removed from map scheduling and counted.
func TestBlacklistAfterRepeatedFaults(t *testing.T) {
	input, want := wordCountInput(t, 64)
	cfg := cluster.DefaultConfig()
	cfg.Servers = 4
	cfg.MapSlotsPerServer = 2
	eng := cluster.New(cfg)
	// Server 3 suffers a fault every second for a while.
	var faults []cluster.Fault
	for i := 0; i < 8; i++ {
		faults = append(faults, cluster.Fault{At: 0.4 + 0.9*float64(i), Kind: cluster.FaultTask, Server: 3})
	}
	var blacklisted []string
	var launchesOn3After float64 = -1
	var blTime float64 = -1
	job := faultJob(input, RetryPolicy{BlacklistAfter: 2}, false)
	job.Faults = &cluster.FaultPlan{Faults: faults}
	job.Trace = func(e Event) {
		switch e.Kind {
		case EventServerBlacklisted:
			blacklisted = append(blacklisted, e.Server)
			blTime = e.Time
		case EventMapLaunched, EventMapSpeculated:
			if e.Server == "server-03" && blTime >= 0 {
				launchesOn3After = e.Time
			}
		}
	}
	res, err := runCounted(t, eng, job)
	if err != nil {
		t.Fatal(err)
	}
	if res.Counters.ServersBlacklisted != 1 || len(blacklisted) != 1 || blacklisted[0] != "server-03" {
		t.Fatalf("expected exactly server-03 blacklisted: counter=%d trace=%v",
			res.Counters.ServersBlacklisted, blacklisted)
	}
	if launchesOn3After >= 0 {
		t.Errorf("map launched on blacklisted server-03 at t=%.2f (blacklisted at t=%.2f)",
			launchesOn3After, blTime)
	}
	if res.Counters.MapsCompleted != res.Counters.MapsTotal {
		t.Errorf("blacklisting must not lose tasks: %+v", res.Counters)
	}
	for _, o := range res.Outputs {
		if !stats.AlmostEqual(o.Est.Value, want[o.Key], 1e-9) {
			t.Errorf("%s = %v, want %v", o.Key, o.Est.Value, want[o.Key])
		}
	}
}

// TestAllServersBlacklistedCleanError is the all-capacity-gone
// regression test: when every server is blacklisted and maps are still
// pending, Run must return a clear error, not stall.
func TestAllServersBlacklistedCleanError(t *testing.T) {
	input, _ := wordCountInput(t, 64)
	cfg := cluster.DefaultConfig()
	cfg.Servers = 2
	cfg.MapSlotsPerServer = 1
	eng := cluster.New(cfg)
	job := faultJob(input, RetryPolicy{BlacklistAfter: 1}, false)
	job.Faults = &cluster.FaultPlan{Faults: []cluster.Fault{
		{At: 0.5, Kind: cluster.FaultTask, Server: 0},
		{At: 0.7, Kind: cluster.FaultTask, Server: 1},
	}}
	_, err := runCounted(t, eng, job)
	if err == nil {
		t.Fatal("fully blacklisted cluster with pending maps must error, not stall")
	}
	if !strings.Contains(err.Error(), "no server can host") {
		t.Errorf("want a clear capacity error, got: %v", err)
	}
}

// TestAllServersBlacklistedDegrades: same scenario under DegradeToDrop
// — the pending tasks become bounded drops and the job completes.
func TestAllServersBlacklistedDegrades(t *testing.T) {
	input, _ := wordCountInput(t, 64)
	cfg := cluster.DefaultConfig()
	cfg.Servers = 2
	cfg.MapSlotsPerServer = 1
	eng := cluster.New(cfg)
	job := faultJob(input, RetryPolicy{BlacklistAfter: 1}, true)
	job.Faults = &cluster.FaultPlan{Faults: []cluster.Fault{
		{At: 0.5, Kind: cluster.FaultTask, Server: 0},
		{At: 0.7, Kind: cluster.FaultTask, Server: 1},
	}}
	res, err := runCounted(t, eng, job)
	if err != nil {
		t.Fatal(err)
	}
	c := res.Counters
	if c.MapsDegraded == 0 {
		t.Fatal("expected pending tasks degraded to drops")
	}
	if c.MapsCompleted+c.MapsDegraded != c.MapsTotal {
		t.Errorf("accounting: %+v", c)
	}
	for _, o := range res.Outputs {
		if o.Exact {
			t.Error("degraded job must not be exact")
		}
	}
}

// TestUnrunnableBlockDegrades stores blocks with replication 1 and
// permanently kills a server: its blocks lose their only replica and
// must degrade (DegradeToDrop on) or fail descriptively (off).
func TestUnrunnableBlockDegrades(t *testing.T) {
	mkInput := func(eng *cluster.Engine, t *testing.T) *dfs.File {
		t.Helper()
		var ids []string
		for _, s := range eng.Servers() {
			ids = append(ids, s.ID)
		}
		nn := dfs.NewNameNode(ids, 1) // replication 1: any death loses data
		input, _ := wordCountInput(t, 64)
		if err := nn.Register(input); err != nil {
			t.Fatal(err)
		}
		return input
	}

	cfg := cluster.DefaultConfig()
	cfg.Servers = 4
	cfg.MapSlotsPerServer = 2

	eng := cluster.New(cfg)
	input := mkInput(eng, t)
	job := faultJob(input, RetryPolicy{}, true)
	// Server 3 hosts no reduce (reduces 0 and 1 round-robin) and dies
	// early, taking its single-replica blocks with it.
	job.Faults = &cluster.FaultPlan{Faults: []cluster.Fault{
		{At: 0.5, Kind: cluster.FaultServer, Server: 3},
	}}
	res, err := runCounted(t, eng, job)
	if err != nil {
		t.Fatal(err)
	}
	if res.Counters.MapsDegraded == 0 {
		t.Fatal("losing a replica-1 server must degrade its unlaunched blocks")
	}
	for _, o := range res.Outputs {
		if o.Exact {
			t.Error("replica loss must mark results approximate")
		}
	}

	eng2 := cluster.New(cfg)
	input2 := mkInput(eng2, t)
	job2 := faultJob(input2, RetryPolicy{}, false)
	job2.Faults = &cluster.FaultPlan{Faults: []cluster.Fault{
		{At: 0.5, Kind: cluster.FaultServer, Server: 3},
	}}
	_, err = runCounted(t, eng2, job2)
	if err == nil {
		t.Fatal("unrunnable block without DegradeToDrop must fail the job")
	}
	if !strings.Contains(err.Error(), "unrunnable") {
		t.Errorf("want an unrunnable-block error, got: %v", err)
	}
}

// TestJobDeadline verifies the map-phase deadline in both modes: cut
// off to bounded drops under DegradeToDrop, clean failure otherwise.
func TestJobDeadline(t *testing.T) {
	input, _ := wordCountInput(t, 64)
	cfg := cluster.DefaultConfig()
	cfg.Servers = 2
	cfg.MapSlotsPerServer = 1 // many waves: the deadline cuts mid-job
	eng := cluster.New(cfg)
	job := faultJob(input, RetryPolicy{JobDeadline: 5}, true)
	res, err := runCounted(t, eng, job)
	if err != nil {
		t.Fatal(err)
	}
	c := res.Counters
	if c.MapsDegraded == 0 {
		t.Fatal("deadline should have cut off unfinished maps")
	}
	if c.MapsCompleted+c.MapsDegraded != c.MapsTotal {
		t.Errorf("accounting: %+v", c)
	}
	for _, o := range res.Outputs {
		if o.Exact {
			t.Error("deadline-cut job must not be exact")
		}
	}

	eng2 := cluster.New(cfg)
	job2 := faultJob(input, RetryPolicy{JobDeadline: 5}, false)
	_, err = runCounted(t, eng2, job2)
	if err == nil {
		t.Fatal("deadline without DegradeToDrop must fail the job")
	}
	if !strings.Contains(err.Error(), "JobDeadline") {
		t.Errorf("want a deadline error, got: %v", err)
	}

	// A generous deadline changes nothing.
	eng3 := cluster.New(cfg)
	job3 := faultJob(input, RetryPolicy{JobDeadline: 1e6}, false)
	res3, err := runCounted(t, eng3, job3)
	if err != nil {
		t.Fatal(err)
	}
	if res3.Counters.MapsCompleted != res3.Counters.MapsTotal {
		t.Errorf("generous deadline should not cut anything: %+v", res3.Counters)
	}
}

// TestServerRecoveryRestoresCapacity fails half the cluster with a
// recovery and verifies the job still completes exactly, re-using the
// rejoined capacity.
func TestServerRecoveryRestoresCapacity(t *testing.T) {
	input, want := wordCountInput(t, 64)
	cfg := cluster.DefaultConfig()
	cfg.Servers = 4
	cfg.MapSlotsPerServer = 2
	eng := cluster.New(cfg)
	var launchedOn3AfterRecovery bool
	job := faultJob(input, RetryPolicy{}, false)
	job.Faults = &cluster.FaultPlan{Faults: []cluster.Fault{
		{At: 0.5, Kind: cluster.FaultServer, Server: 3, Recover: 2},
	}}
	job.Trace = func(e Event) {
		if e.Kind == EventMapLaunched && e.Server == "server-03" && e.Time > 2.5 {
			launchedOn3AfterRecovery = true
		}
	}
	res, err := runCounted(t, eng, job)
	if err != nil {
		t.Fatal(err)
	}
	if res.Counters.MapsFailed == 0 {
		t.Error("expected attempts lost to the failure")
	}
	if !launchedOn3AfterRecovery {
		t.Error("recovered server should host maps again")
	}
	if res.Counters.MapsCompleted != res.Counters.MapsTotal {
		t.Errorf("recovery run must complete all maps: %+v", res.Counters)
	}
	for _, o := range res.Outputs {
		if !o.Exact || !stats.AlmostEqual(o.Est.Value, want[o.Key], 1e-9) {
			t.Errorf("%s = %v exact=%v, want exact %v", o.Key, o.Est.Value, o.Exact, want[o.Key])
		}
	}
}

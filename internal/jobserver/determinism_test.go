package jobserver

import (
	"approxhadoop/internal/approx"
	"testing"

	"approxhadoop/internal/mapreduce"
	"approxhadoop/internal/stats"
)

// replayTrace runs the canonical seeded 50-job trace on a fresh
// service with the given policy and worker-pool size.
func replayTrace(t *testing.T, policy Policy, workers, n int, seed int64) []JobState {
	t.Helper()
	svc := New(Config{Policy: policy, Workers: workers, MaxQueue: n + 1, SnapshotEvery: -1})
	states := svc.Replay(GenerateTrace(n, seed))
	for _, st := range states {
		if st.Status != StatusDone {
			t.Fatalf("job %s (%s): status %s, err %q", st.ID, st.Spec.Name, st.Status, st.Err)
		}
	}
	return states
}

// compareStates requires bitwise agreement of the full per-job
// outcome: admission and completion instants, runtime, energy, and
// every estimate with its error bound.
func compareStates(t *testing.T, label string, a, b []JobState) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: state counts differ: %d vs %d", label, len(a), len(b))
	}
	for i := range a {
		x, y := a[i], b[i]
		if x.ID != y.ID || x.Spec.Name != y.Spec.Name || x.Status != y.Status {
			t.Fatalf("%s: job %d identity differs: %s/%s/%s vs %s/%s/%s",
				label, i, x.ID, x.Spec.Name, x.Status, y.ID, y.Spec.Name, y.Status)
		}
		if !stats.AlmostEqual(x.StartVT, y.StartVT, 0) || !stats.AlmostEqual(x.EndVT, y.EndVT, 0) {
			t.Errorf("%s: job %s timeline differs: [%v,%v] vs [%v,%v]",
				label, x.ID, x.StartVT, x.EndVT, y.StartVT, y.EndVT)
		}
		compareResult(t, label+"/"+x.ID, x.Result, y.Result)
	}
}

func compareResult(t *testing.T, label string, a, b *mapreduce.Result) {
	t.Helper()
	if (a == nil) != (b == nil) {
		t.Fatalf("%s: one result missing", label)
	}
	if a == nil {
		return
	}
	if !stats.AlmostEqual(a.Runtime, b.Runtime, 0) {
		t.Errorf("%s: runtimes differ: %v vs %v", label, a.Runtime, b.Runtime)
	}
	if !stats.AlmostEqual(a.EnergyWh, b.EnergyWh, 0) {
		t.Errorf("%s: energy differs: %v vs %v", label, a.EnergyWh, b.EnergyWh)
	}
	if a.Counters != b.Counters {
		t.Errorf("%s: counters differ: %+v vs %+v", label, a.Counters, b.Counters)
	}
	compareOutputs(t, label, a.Outputs, b.Outputs)
}

func compareOutputs(t *testing.T, label string, a, b []mapreduce.KeyEstimate) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: output counts differ: %d vs %d", label, len(a), len(b))
	}
	for i := range a {
		x, y := a[i], b[i]
		if x.Key != y.Key || x.Exact != y.Exact ||
			!stats.AlmostEqual(x.Est.Value, y.Est.Value, 0) ||
			!stats.AlmostEqual(x.Est.Err, y.Est.Err, 0) {
			t.Errorf("%s: output %d differs: %+v vs %+v", label, i, x, y)
		}
	}
}

// TestReplayDeterministicAcrossWorkers is the tentpole acceptance
// check: a seeded replay of 50 concurrently submitted jobs on one
// shared engine yields byte-identical per-job results — admission
// times, runtimes, energy, outputs, bounds — for any worker-pool size,
// under both scheduling policies. The decide/flush ordering of the
// slot arbiter composes with the two-plane compute pool, so wall-clock
// execution parallelism never touches the virtual timeline.
func TestReplayDeterministicAcrossWorkers(t *testing.T) {
	const n, seed = 50, 42
	for _, policy := range []Policy{PolicyFIFO, PolicyFair} {
		t.Run(policy.String(), func(t *testing.T) {
			base := replayTrace(t, policy, 1, n, seed)
			again := replayTrace(t, policy, 1, n, seed)
			compareStates(t, "rerun", base, again)
			pooled := replayTrace(t, policy, 4, n, seed)
			compareStates(t, "workers=4", base, pooled)
		})
	}
}

// TestReplayOutputsPolicyInvariant checks the stronger cross-policy
// property: because GenerateTrace uses only precise and static
// controllers — whose drops are the tail of each job's own seeded
// launch order, independent of when slots were granted — every job's
// *outputs* (values and error bounds) are identical under FIFO and
// fair-share scheduling. Runtimes and energy legitimately differ;
// what the job computes does not.
func TestReplayOutputsPolicyInvariant(t *testing.T) {
	const n, seed = 50, 42
	fifo := replayTrace(t, PolicyFIFO, 1, n, seed)
	fair := replayTrace(t, PolicyFair, 1, n, seed)
	if len(fifo) != len(fair) {
		t.Fatalf("state counts differ: %d vs %d", len(fifo), len(fair))
	}
	for i := range fifo {
		if fifo[i].Spec.Name != fair[i].Spec.Name {
			t.Fatalf("job %d ordering differs: %s vs %s", i, fifo[i].Spec.Name, fair[i].Spec.Name)
		}
		compareOutputs(t, fifo[i].Spec.Name, fifo[i].Result.Outputs, fair[i].Result.Outputs)
	}
}

// TestReplayDirectRunAgreement: a job's service outputs must equal a
// direct single-tenant mapreduce run of the same spec and seed — the
// multi-tenant arbiter changes when tasks run, never what they
// compute.
func TestReplayDirectRunAgreement(t *testing.T) {
	spec := JobSpec{App: "total-size", Blocks: 24, LinesPerBlock: 100, Seed: 7,
		Approximation: approx.Approximation{SampleRatio: 0.25, DropRatio: 0.25}, Name: "direct-check"}

	svc := New(Config{Policy: PolicyFair, MaxQueue: 8, SnapshotEvery: -1})
	states := svc.Replay([]JobSpec{spec})
	if states[0].Status != StatusDone {
		t.Fatalf("service run failed: %s %s", states[0].Status, states[0].Err)
	}

	job, err := spec.Build(1)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := mapreduce.Run(New(Config{SnapshotEvery: -1}).Engine(), job)
	if err != nil {
		t.Fatal(err)
	}
	compareOutputs(t, "direct-vs-service", direct.Outputs, states[0].Result.Outputs)
}

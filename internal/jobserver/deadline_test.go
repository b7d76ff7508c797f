package jobserver

import (
	"approxhadoop/internal/approx"
	"encoding/json"
	"math"
	"strings"
	"testing"
)

// deadlineBase is a ten-wave job (800 maps on 80 slots): big enough
// that a fraction of its precise runtime is still several map waves,
// giving the deadline planner real room to trade accuracy for time.
func deadlineBase() JobSpec {
	return JobSpec{Name: "calib", App: "total-size", Blocks: 800, LinesPerBlock: 200, Seed: 13}
}

// preciseRuntime calibrates the job's full-accuracy virtual runtime.
func preciseRuntime(t *testing.T) float64 {
	t.Helper()
	pre := New(Config{SnapshotEvery: -1}).Replay([]JobSpec{deadlineBase()})
	if pre[0].Status != StatusDone {
		t.Fatalf("calibration run: %s %s", pre[0].Status, pre[0].Err)
	}
	return pre[0].Result.Runtime
}

// TestDeadlineSLOMeetsDeadline: a deadline one third of the precise
// runtime forces the controller to approximate; the job must finish
// inside the SLO with statistically valid (finite) confidence
// intervals on its estimates.
func TestDeadlineSLOMeetsDeadline(t *testing.T) {
	precise := preciseRuntime(t)
	spec := deadlineBase()
	spec.Name = "slo"
	spec.Deadline = precise / 3
	states := New(Config{SnapshotEvery: -1}).Replay([]JobSpec{spec})
	st := states[0]
	if st.Status != StatusDone {
		t.Fatalf("deadline job: %s %s", st.Status, st.Err)
	}
	if st.Result.Runtime > spec.Deadline {
		t.Errorf("runtime %.6f blew the %.6f deadline (precise %.6f)",
			st.Result.Runtime, spec.Deadline, precise)
	}
	if len(st.Result.Outputs) == 0 {
		t.Fatal("no outputs")
	}
	approximated := false
	for _, out := range st.Result.Outputs {
		if out.Exact {
			continue
		}
		approximated = true
		if math.IsNaN(out.Est.Err) || math.IsInf(out.Est.Err, 0) {
			t.Errorf("key %s: unbounded interval under a met deadline", out.Key)
		}
	}
	if !approximated {
		t.Error("a third of the precise budget should have forced approximation")
	}
	if c := st.Result.Counters; c.MapsDropped == 0 && c.ItemsProcessed >= c.ItemsTotal {
		t.Errorf("no work was shed: %+v", c)
	}
}

// TestDeadlineSLOInfeasible: a deadline far below even one map wave
// fails the job with a descriptive error instead of returning numbers
// whose bounds would be a lie.
func TestDeadlineSLOInfeasible(t *testing.T) {
	precise := preciseRuntime(t)
	spec := deadlineBase()
	spec.Name = "doomed"
	spec.Deadline = precise / 100
	states := New(Config{SnapshotEvery: -1}).Replay([]JobSpec{spec})
	st := states[0]
	if st.Status != StatusFailed {
		t.Fatalf("want failure, got %s (err %q)", st.Status, st.Err)
	}
	if !strings.Contains(st.Err, "deadline") {
		t.Errorf("error %q does not explain the deadline", st.Err)
	}
}

// TestDeadlineSLOBestEffort: the same hopeless deadline with
// BestEffort set degrades instead of failing — the job completes with
// whatever it managed.
func TestDeadlineSLOBestEffort(t *testing.T) {
	precise := preciseRuntime(t)
	spec := deadlineBase()
	spec.Name = "scrappy"
	spec.Deadline = precise / 100
	spec.BestEffort = true
	states := New(Config{SnapshotEvery: -1}).Replay([]JobSpec{spec})
	st := states[0]
	if st.Status != StatusDone {
		t.Fatalf("best-effort job should finish, got %s (err %q)", st.Status, st.Err)
	}
}

// TestDeadlineSpecValidation: a legacy "deadline" controller without a
// deadline is rejected where the key is read, and a negative deadline
// at submission.
func TestDeadlineSpecValidation(t *testing.T) {
	var spec JobSpec
	if err := json.Unmarshal([]byte(`{"name":"bad","app":"total-size","controller":"deadline"}`), &spec); err == nil {
		t.Fatal("a deadline controller without a deadline decoded")
	}
	states := New(Config{SnapshotEvery: -1}).Replay([]JobSpec{
		{Name: "bad", App: "total-size", Approximation: approx.Approximation{Deadline: -1}},
	})
	if states[0].Status != StatusRejected {
		t.Fatalf("want rejection, got %s", states[0].Status)
	}
}

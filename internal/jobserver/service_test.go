package jobserver

import (
	"approxhadoop/internal/approx"
	"reflect"
	"strings"
	"testing"

	"approxhadoop/internal/stats"
)

// heavySpec/lightSpec build precise jobs whose only difference is bulk.
func heavySpec(name string, blocks int) JobSpec {
	return JobSpec{Name: name, App: "total-size", Blocks: blocks, LinesPerBlock: 100, Seed: 11}
}

func byName(t *testing.T, states []JobState, name string) JobState {
	t.Helper()
	for _, st := range states {
		if st.Spec.Name == name {
			return st
		}
	}
	t.Fatalf("no job named %q in %d states", name, len(states))
	return JobState{}
}

// TestFairShareAvoidsStarvation is the bounded-wait acceptance check.
// Four heavy jobs and one small one are submitted together. Under FIFO
// arbitration the heavies monopolize the cluster in admission order
// and the small job runs last; under fair-share its quota is
// guaranteed, so it finishes before any heavy job — and far earlier
// than its own FIFO completion.
func TestFairShareAvoidsStarvation(t *testing.T) {
	specs := []JobSpec{
		heavySpec("a-heavy-1", 120), heavySpec("a-heavy-2", 120),
		heavySpec("a-heavy-3", 120), heavySpec("a-heavy-4", 120),
		heavySpec("z-small", 8),
	}
	run := func(policy Policy) []JobState {
		svc := New(Config{Policy: policy, MaxQueue: 16, SnapshotEvery: -1})
		states := svc.Replay(specs)
		for _, st := range states {
			if st.Status != StatusDone {
				t.Fatalf("%s under %s: %s %s", st.Spec.Name, policy, st.Status, st.Err)
			}
		}
		return states
	}
	fifo := run(PolicyFIFO)
	fair := run(PolicyFair)

	fairSmall := byName(t, fair, "z-small")
	for _, name := range []string{"a-heavy-1", "a-heavy-2", "a-heavy-3", "a-heavy-4"} {
		if h := byName(t, fair, name); h.EndVT < fairSmall.EndVT {
			t.Errorf("fair: %s finished at %.2f before small job at %.2f — small job starved",
				name, h.EndVT, fairSmall.EndVT)
		}
	}
	fifoSmall := byName(t, fifo, "z-small")
	if fairSmall.EndVT >= fifoSmall.EndVT {
		t.Errorf("fair-share gave the small job no advantage: fair end %.2f vs fifo end %.2f",
			fairSmall.EndVT, fifoSmall.EndVT)
	}
}

// TestFairShareWeights: with equal bulk, a weight-3 job holds a larger
// slot share than a weight-1 rival and finishes first.
func TestFairShareWeights(t *testing.T) {
	specs := []JobSpec{
		{Name: "a-gold", App: "total-size", Blocks: 160, LinesPerBlock: 100, Seed: 5, Weight: 3},
		{Name: "b-bronze", App: "total-size", Blocks: 160, LinesPerBlock: 100, Seed: 5, Weight: 1},
	}
	svc := New(Config{Policy: PolicyFair, MaxQueue: 8, SnapshotEvery: -1})
	states := svc.Replay(specs)
	gold, bronze := byName(t, states, "a-gold"), byName(t, states, "b-bronze")
	if gold.Status != StatusDone || bronze.Status != StatusDone {
		t.Fatalf("statuses: %s / %s", gold.Status, bronze.Status)
	}
	if gold.EndVT >= bronze.EndVT {
		t.Errorf("weight 3 job ended at %.2f, not before weight 1 job at %.2f", gold.EndVT, bronze.EndVT)
	}
}

// TestFIFOCompletionOrder: same-size jobs complete in admission order
// under FIFO arbitration.
func TestFIFOCompletionOrder(t *testing.T) {
	specs := []JobSpec{heavySpec("a-1", 60), heavySpec("b-2", 60), heavySpec("c-3", 60)}
	svc := New(Config{Policy: PolicyFIFO, MaxQueue: 8, SnapshotEvery: -1})
	states := svc.Replay(specs)
	for i := 1; i < len(states); i++ {
		if states[i].EndVT < states[i-1].EndVT {
			t.Errorf("FIFO inversion: %s ended at %.2f before %s at %.2f",
				states[i].Spec.Name, states[i].EndVT, states[i-1].Spec.Name, states[i-1].EndVT)
		}
	}
}

// TestAdmissionBackpressure: with one active slot and a two-deep
// queue, five simultaneous submissions yield exactly two ErrBusy
// rejections; the admitted three all finish.
func TestAdmissionBackpressure(t *testing.T) {
	specs := make([]JobSpec, 5)
	for i := range specs {
		specs[i] = heavySpec("job-"+string(rune('a'+i)), 16)
	}
	svc := New(Config{MaxActive: 1, MaxQueue: 2, SnapshotEvery: -1})
	states := svc.Replay(specs)
	var done, rejected int
	for _, st := range states {
		switch st.Status {
		case StatusDone:
			done++
		case StatusRejected:
			rejected++
			if !strings.Contains(st.Err, "queue full") {
				t.Errorf("rejection error %q does not mention the queue", st.Err)
			}
		default:
			t.Errorf("%s: unexpected status %s (%s)", st.Spec.Name, st.Status, st.Err)
		}
	}
	if done != 3 || rejected != 2 {
		t.Fatalf("done=%d rejected=%d, want 3/2", done, rejected)
	}
	if st := svc.Stats(); st.Rejected != 2 || st.Done != 3 {
		t.Errorf("stats disagree: %+v", st)
	}
}

// TestCancelQueuedAndRunning exercises both cancellation paths on a
// manually driven engine: one job is killed mid-run, one is plucked
// from the admission queue, and a third unrelated job still completes.
func TestCancelQueuedAndRunning(t *testing.T) {
	svc := New(Config{MaxActive: 1, MaxQueue: 8, SnapshotEvery: -1})
	eng := svc.Engine()
	var runID, queuedID, survivorID string
	eng.At(0, func() {
		var err error
		if runID, err = svc.Submit(heavySpec("running", 60)); err != nil {
			t.Fatalf("submit running: %v", err)
		}
		if queuedID, err = svc.Submit(heavySpec("queued", 16)); err != nil {
			t.Fatalf("submit queued: %v", err)
		}
		if survivorID, err = svc.Submit(heavySpec("survivor", 16)); err != nil {
			t.Fatalf("submit survivor: %v", err)
		}
	})
	// Scheduled after the submissions at the same instant: the engine's
	// FIFO tie-break runs this while the first job is mid-flight and
	// the second still queued (whole jobs finish in under a virtual
	// millisecond here, so any later time would miss them).
	eng.At(0, func() {
		if err := svc.Cancel(queuedID); err != nil {
			t.Errorf("cancel queued: %v", err)
		}
		if err := svc.Cancel(runID); err != nil {
			t.Errorf("cancel running: %v", err)
		}
	})
	eng.Run()

	run, _ := svc.JobInfo(runID)
	if run.Status != StatusCanceled || !strings.Contains(run.Err, "canceled") {
		t.Errorf("running job: %s %q", run.Status, run.Err)
	}
	queued, _ := svc.JobInfo(queuedID)
	if queued.Status != StatusCanceled || !strings.Contains(queued.Err, "queued") {
		t.Errorf("queued job: %s %q", queued.Status, queued.Err)
	}
	survivor, _ := svc.JobInfo(survivorID)
	if survivor.Status != StatusDone {
		t.Errorf("survivor: %s %q", survivor.Status, survivor.Err)
	}
	if st := svc.Stats(); st.Canceled != 2 || st.Done != 1 {
		t.Errorf("stats: %+v", st)
	}
	if err := svc.Cancel(runID); err != nil {
		t.Errorf("cancel of terminal job should be a no-op, got %v", err)
	}
	if err := svc.Cancel("job-9999"); err == nil {
		t.Error("cancel of unknown job should error")
	}
}

// TestSnapshotsConvergeToFinal: streamed snapshots appear while the
// job runs, advance in virtual time, and the last one is exactly the
// job's final output.
func TestSnapshotsConvergeToFinal(t *testing.T) {
	spec := JobSpec{Name: "snap", App: "project-popularity", Blocks: 80, LinesPerBlock: 200,
		Seed: 9, Approximation: approx.Approximation{SampleRatio: 0.25}}

	// Calibrate: how long does this job take unobserved?
	pre := New(Config{SnapshotEvery: -1}).Replay([]JobSpec{spec})
	if pre[0].Status != StatusDone {
		t.Fatalf("calibration run: %s %s", pre[0].Status, pre[0].Err)
	}
	runtime := pre[0].Result.Runtime

	svc := New(Config{SnapshotEvery: runtime / 8})
	states := svc.Replay([]JobSpec{spec})
	st := states[0]
	if st.Status != StatusDone {
		t.Fatalf("run: %s %s", st.Status, st.Err)
	}
	full, _ := svc.JobInfo(st.ID)
	snaps, _ := followJob(t, svc, st.ID, 0)
	if len(snaps) < 3 {
		t.Fatalf("want >= 3 snapshots at period %.2f over runtime %.2f, got %d",
			runtime/8, runtime, len(snaps))
	}
	for i := 1; i < len(snaps); i++ {
		if snaps[i].T <= snaps[i-1].T {
			t.Errorf("snapshot times not increasing: %.3f then %.3f", snaps[i-1].T, snaps[i].T)
		}
	}
	last := snaps[len(snaps)-1]
	if want := WireEstimates(full.Result.Outputs); !reflect.DeepEqual(last.Estimates, want) {
		t.Errorf("final snapshot's %d estimates differ from the job's %d outputs", len(last.Estimates), len(want))
	}
	if !stats.AlmostEqual(last.T, full.Result.Runtime, 0) {
		t.Errorf("terminal snapshot at %.3f, runtime %.3f", last.T, full.Result.Runtime)
	}
}

// TestStreamFromFollowsJob replays a job, then walks its frame log
// with a cursor the way the HTTP handler does.
func TestStreamFromFollowsJob(t *testing.T) {
	spec := JobSpec{Name: "stream", App: "total-size", Blocks: 40, LinesPerBlock: 100, Seed: 3}
	svc := New(Config{SnapshotEvery: 1})
	states := svc.Replay([]JobSpec{spec})
	if states[0].Status != StatusDone {
		t.Fatalf("run: %s %s", states[0].Status, states[0].Err)
	}
	id := states[0].ID
	frames, _ := followJob(t, svc, id, 0)
	for i, f := range frames {
		if f.Seq != i {
			t.Errorf("frame %d has seq %d; the log must be gap-free", i, f.Seq)
		}
	}
	// A resumed cursor gets exactly the suffix, and one past the end is
	// clamped, not an error.
	if tail, _ := followJob(t, svc, id, 1); len(frames) < 2 || len(tail) != len(frames)-1 {
		t.Errorf("walk delivered %d frames, resume from 1 delivered %d", len(frames), len(tail))
	}
	if fresh, status, next, err := svc.FramesFrom(id, len(frames)+7, 0); err != nil || len(fresh) != 0 || next != len(frames) || status != StatusDone {
		t.Errorf("over-large cursor: %d frames, status %s, next %d, err %v", len(fresh), status, next, err)
	}
	if _, _, _, err := svc.FramesFrom("nope", 0, 0); err == nil {
		t.Error("FramesFrom of unknown job should error")
	}
}

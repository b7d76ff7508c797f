package jobserver

import (
	"approxhadoop/internal/approx"
	"encoding/json"
	"errors"
	"net/http"
	"reflect"
	"strings"
	"testing"

	"approxhadoop/internal/mapreduce"
)

func mustJSON(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// resultBytes is the bitwise-comparison form of a result: the journal
// encoding round-trips every field including NaN/Inf error bounds, so
// equal strings mean byte-identical results.
func resultBytes(t *testing.T, res *mapreduce.Result) string {
	t.Helper()
	if res == nil {
		t.Fatal("nil result")
	}
	return mustJSON(t, toJournalResult(res))
}

// directRun executes a spec on a fresh private cluster — the
// uninterrupted control the recovered daemon must match.
func directRun(t *testing.T, spec JobSpec) *mapreduce.Result {
	t.Helper()
	job, err := spec.Build(1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := mapreduce.Run(New(Config{SnapshotEvery: -1}).Engine(), job)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func recoverySpecs() []JobSpec {
	return []JobSpec{
		{Name: "a-precise", App: "total-size", Blocks: 12, LinesPerBlock: 60, Seed: 7},
		{Name: "b-sampled", App: "project-popularity", Blocks: 16, LinesPerBlock: 60, Seed: 8,
			Approximation: approx.Approximation{SampleRatio: 0.5}},
		{Name: "c-dropped", App: "clients", Blocks: 12, LinesPerBlock: 60, Seed: 9,
			Approximation: approx.Approximation{SampleRatio: 0.5, DropRatio: 0.25}},
	}
}

// TestRecoverRestoresCompleted: jobs that finished before the crash
// come back verbatim from their journaled terminal records — status,
// timeline, counters, and bit-for-bit outputs — with no re-execution.
func TestRecoverRestoresCompleted(t *testing.T) {
	path := tempJournal(t)
	j, _, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	svc := New(Config{MaxQueue: 8, SnapshotEvery: -1})
	svc.UseJournal(j)
	before := svc.Replay(recoverySpecs())
	for _, st := range before {
		if st.Status != StatusDone {
			t.Fatalf("%s: %s %s", st.Spec.Name, st.Status, st.Err)
		}
	}
	svc.Close()

	j2, recs, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	svc2 := New(Config{MaxQueue: 8, SnapshotEvery: -1})
	svc2.UseJournal(j2)
	rs, err := svc2.Recover(recs)
	if err != nil {
		t.Fatal(err)
	}
	defer svc2.Close()
	if rs.Terminal != len(before) || rs.Requeued != 0 {
		t.Fatalf("recovery stats %+v, want %d terminal / 0 requeued", rs, len(before))
	}
	for _, want := range before {
		got, ok := svc2.JobInfo(want.ID)
		if !ok {
			t.Fatalf("job %s lost in recovery", want.ID)
		}
		//lint:ignore nofloateq restored timeline fields must match the journaled values bit for bit
		timelineMatches := got.SubmitVT == want.SubmitVT && got.StartVT == want.StartVT && got.EndVT == want.EndVT
		if got.Status != want.Status || !timelineMatches {
			t.Errorf("job %s restored as %+v, want %+v", want.ID, got, want)
		}
		if resultBytes(t, got.Result) != resultBytes(t, want.Result) {
			t.Errorf("job %s: restored result not byte-identical", want.ID)
		}
		frames, _ := followJob(t, svc2, want.ID, 0)
		if len(frames) != 1 || !frames[0].Final || frames[0].Status != string(StatusDone) ||
			!reflect.DeepEqual(frames[0].Estimates, WireEstimates(want.Result.Outputs)) {
			t.Errorf("job %s: restored log replays %d frames; want exactly its terminal frame", want.ID, len(frames))
		}
	}
	// Fresh ids continue past every journaled one.
	id, err := svc2.Submit(JobSpec{App: "total-size", Blocks: 8, LinesPerBlock: 50, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, taken := svc2.JobInfo(id); !taken {
		t.Fatalf("post-recovery submit id %s not registered", id)
	}
	for _, want := range before {
		if id == want.ID {
			t.Fatalf("post-recovery submit reused id %s", id)
		}
	}
}

// TestRecoverReexecutesInterrupted: jobs the crash caught queued or
// running have only submit (and maybe admit) records; recovery
// re-admits them in original order and re-executes them from (spec,
// seed) to results byte-identical to an uninterrupted run.
func TestRecoverReexecutesInterrupted(t *testing.T) {
	path := tempJournal(t)
	specs := recoverySpecs()
	j, _, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	ids := []string{"job-0000", "job-0001", "job-0002"}
	for i, spec := range specs {
		spec := spec
		if err := j.Append(JournalRecord{Op: JournalSubmit, ID: ids[i], Spec: &spec, SubmitVT: float64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	// The first job had been admitted; the rest were still queued.
	if err := j.Append(JournalRecord{Op: JournalAdmit, ID: ids[0], StartVT: 0.5}); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	j2, recs, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	svc := New(Config{MaxQueue: 8, SnapshotEvery: -1})
	svc.UseJournal(j2)
	rs, err := svc.Recover(recs)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	if rs.Requeued != len(specs) || rs.Terminal != 0 {
		t.Fatalf("recovery stats %+v, want %d requeued", rs, len(specs))
	}
	svc.Engine().Run()
	for i, spec := range specs {
		st, ok := svc.JobInfo(ids[i])
		if !ok {
			t.Fatalf("job %s not recovered", ids[i])
		}
		if st.Status != StatusDone {
			t.Fatalf("recovered %s: %s %s", ids[i], st.Status, st.Err)
		}
		want := directRun(t, spec)
		if mustJSON(t, toJournalResult(st.Result).Outputs) != mustJSON(t, toJournalResult(want).Outputs) {
			t.Errorf("job %s (%s): re-executed outputs not byte-identical to control run", ids[i], spec.Name)
		}
	}
}

// TestRecoverHonorsPendingCancel: a journaled cancel with no terminal
// record means the daemon died mid-kill; recovery must finalize the
// cancellation, not resurrect the job.
func TestRecoverHonorsPendingCancel(t *testing.T) {
	path := tempJournal(t)
	j, _, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	spec := recoverySpecs()[0]
	if err := j.Append(JournalRecord{Op: JournalSubmit, ID: "job-0000", Spec: &spec, SubmitVT: 0}); err != nil {
		t.Fatal(err)
	}
	if err := j.Append(JournalRecord{Op: JournalAdmit, ID: "job-0000", StartVT: 1}); err != nil {
		t.Fatal(err)
	}
	if err := j.Append(JournalRecord{Op: JournalCancel, ID: "job-0000", EndVT: 5}); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	j2, recs, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	svc := New(Config{SnapshotEvery: -1})
	svc.UseJournal(j2)
	rs, err := svc.Recover(recs)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	if rs.Canceled != 1 || rs.Requeued != 0 {
		t.Fatalf("recovery stats %+v, want 1 canceled / 0 requeued", rs)
	}
	st, ok := svc.JobInfo("job-0000")
	if !ok || st.Status != StatusCanceled {
		t.Fatalf("job-0000 recovered as %+v, want canceled", st)
	}
}

// TestIdempotencyDedup: the same key submitted twice runs once; the
// duplicate is answered with the original id.
func TestIdempotencyDedup(t *testing.T) {
	svc := New(Config{MaxQueue: 8, SnapshotEvery: -1})
	spec := recoverySpecs()[0]
	spec.IdempotencyKey = "retry-me"
	id1, err := svc.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	id2, err := svc.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if id1 != id2 {
		t.Fatalf("duplicate key got new job %s, want original %s", id2, id1)
	}
	if n := len(svc.Jobs()); n != 1 {
		t.Fatalf("%d jobs after duplicate submit, want 1", n)
	}
}

// TestIdempotencyDedupAcrossRecovery: keys are journaled with the
// spec, so a blind retry after a crash-and-restart is answered with
// the original (restored) job and its original result.
func TestIdempotencyDedupAcrossRecovery(t *testing.T) {
	path := tempJournal(t)
	j, _, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	svc := New(Config{MaxQueue: 8, SnapshotEvery: -1})
	svc.UseJournal(j)
	spec := recoverySpecs()[1]
	spec.IdempotencyKey = "billing-q3"
	before := svc.Replay([]JobSpec{spec})
	if before[0].Status != StatusDone {
		t.Fatalf("%s %s", before[0].Status, before[0].Err)
	}
	svc.Close()

	j2, recs, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	svc2 := New(Config{MaxQueue: 8, SnapshotEvery: -1})
	svc2.UseJournal(j2)
	if _, err := svc2.Recover(recs); err != nil {
		t.Fatal(err)
	}
	defer svc2.Close()
	id, err := svc2.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if id != before[0].ID {
		t.Fatalf("post-recovery duplicate got %s, want original %s", id, before[0].ID)
	}
	st, _ := svc2.JobInfo(id)
	if resultBytes(t, st.Result) != resultBytes(t, before[0].Result) {
		t.Fatal("deduped job's restored result not byte-identical to the original")
	}
}

// TestDrainQueuedJobsRecovered is the admission-queue drain contract:
// a drain stops dispatch, submissions fail with ErrDraining, and the
// queued-but-never-run jobs ride their journaled submit records into
// the next boot, where they execute to byte-identical results.
func TestDrainQueuedJobsRecovered(t *testing.T) {
	path := tempJournal(t)
	j, _, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	// MaxActive 1 and no engine pumping: the first job sits "running"
	// forever, the second stays queued — a frozen mid-flight daemon.
	svc := New(Config{MaxActive: 1, MaxQueue: 8, SnapshotEvery: -1})
	svc.UseJournal(j)
	specs := recoverySpecs()[:2]
	var ids []string
	for _, spec := range specs {
		id, err := svc.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	if svc.ActiveCount() != 1 || svc.QueuedCount() != 1 {
		t.Fatalf("active %d queued %d, want 1/1", svc.ActiveCount(), svc.QueuedCount())
	}

	svc.StartDrain()
	if !svc.Draining() || !svc.Stats().Draining {
		t.Fatal("drain not visible")
	}
	if _, err := svc.Submit(specs[0]); !errors.Is(err, ErrDraining) {
		t.Fatalf("submit during drain: %v, want ErrDraining", err)
	}
	// The kill lands here: journal closed with both jobs incomplete.
	svc.Close()

	j2, recs, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	svc2 := New(Config{MaxActive: 1, MaxQueue: 8, SnapshotEvery: -1})
	svc2.UseJournal(j2)
	rs, err := svc2.Recover(recs)
	if err != nil {
		t.Fatal(err)
	}
	defer svc2.Close()
	if rs.Requeued != 2 {
		t.Fatalf("recovery stats %+v, want 2 requeued", rs)
	}
	svc2.Engine().Run()
	for i, id := range ids {
		st, ok := svc2.JobInfo(id)
		if !ok || st.Status != StatusDone {
			t.Fatalf("recovered %s: %+v", id, st)
		}
		want := directRun(t, specs[i])
		if mustJSON(t, toJournalResult(st.Result).Outputs) != mustJSON(t, toJournalResult(want).Outputs) {
			t.Errorf("job %s: post-drain recovery diverged from control run", id)
		}
	}
}

// TestDrainHTTP503RetryAfter: over the wire, a draining daemon answers
// submissions with 503 + Retry-After and flips /readyz, while /healthz
// stays green (the process is healthy, just leaving).
func TestDrainHTTP503RetryAfter(t *testing.T) {
	d, ts := startDaemon(t, Config{SnapshotEvery: -1}, false)

	if code := getJSON(t, ts.URL+"/readyz", nil); code != http.StatusOK {
		t.Fatalf("readyz before drain: %d", code)
	}
	d.Service().StartDrain()

	buf := mustJSON(t, JobSpec{App: "total-size", Blocks: 8, LinesPerBlock: 50, Seed: 1})
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit during drain: HTTP %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 without Retry-After header")
	}
	if code := getJSON(t, ts.URL+"/readyz", nil); code != http.StatusServiceUnavailable {
		t.Fatalf("readyz during drain: %d, want 503", code)
	}
	if code := getJSON(t, ts.URL+"/healthz", nil); code != http.StatusOK {
		t.Fatalf("healthz during drain: %d, want 200", code)
	}
}

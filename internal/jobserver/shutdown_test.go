package jobserver

import (
	"io"
	"net/http"
	"sync"
	"testing"
	"time"
)

// TestCloseIdempotent: Service.Close is called by daemon teardown,
// signal handlers, and test cleanups — every call after the first must
// be a no-op, including the journal close underneath.
func TestCloseIdempotent(t *testing.T) {
	j, _, err := OpenJournal(tempJournal(t))
	if err != nil {
		t.Fatal(err)
	}
	svc := New(Config{SnapshotEvery: -1})
	svc.UseJournal(j)
	if _, err := svc.Submit(JobSpec{App: "total-size", Blocks: 8, LinesPerBlock: 50, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	svc.Close()
	svc.Close()
	svc.Close()
	if err := svc.JournalErr(); err != nil {
		t.Fatalf("repeated Close corrupted the journal state: %v", err)
	}
	d := NewFleetDaemon([]*Service{New(Config{SnapshotEvery: -1})}, false)
	d.Stop()
	d.Stop()
}

// TestCloseWakesStreamWaiters: goroutines blocked in FramesFrom on a
// never-finishing job must all wake with an error when the service
// closes — a hung waiter would hold its HTTP handler, and with it the
// listener, open forever.
func TestCloseWakesStreamWaiters(t *testing.T) {
	svc := New(Config{SnapshotEvery: -1})
	// Submit dispatches onto the engine, but nothing pumps it: the job
	// stays running forever — a stand-in for a stream with no traffic.
	id, err := svc.Submit(JobSpec{App: "total-size", Blocks: 8, LinesPerBlock: 50, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	const waiters = 8
	errs := make([]error, waiters)
	var wg sync.WaitGroup
	for i := 0; i < waiters; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, _, _, errs[i] = svc.FramesFrom(id, 0, 0)
		}()
	}
	// Give the waiters a moment to block (late arrivals see closed and
	// return immediately, which is equally correct).
	time.Sleep(20 * time.Millisecond)
	svc.Close()
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("stream waiters still blocked 5s after Close")
	}
	for i, err := range errs {
		if err == nil {
			t.Errorf("waiter %d returned nil error from a closed service", i)
		}
	}
}

// TestShutdownCompletesInflightStream is the listener-ordering half of
// the shutdown contract: an in-flight HTTP stream handler blocked on a
// job that will never finish must complete once the daemon stops, so
// closing the listener (which waits for in-flight requests) cannot
// deadlock.
func TestShutdownCompletesInflightStream(t *testing.T) {
	d, ts := startDaemon(t, Config{SnapshotEvery: 5})
	svc := d.fleet.Shard(0)
	// Freeze a job in the queue: drain blocks dispatch, so the enqueued
	// job can never start, and its stream never produces a frame.
	svc.StartDrain()
	if err := d.fleet.shards[0].do(func() {
		spec := JobSpec{Name: "frozen", App: "total-size", Blocks: 8, LinesPerBlock: 50, Seed: 2}
		job, err := spec.Build(1)
		if err != nil {
			t.Error(err)
			return
		}
		svc.enqueue(spec, job, "job-frozen")
	}); err != nil {
		t.Fatal(err)
	}

	connected := make(chan struct{})
	streamDone := make(chan error, 1)
	go func() {
		resp, err := http.Get(ts.URL + "/v1/jobs/job-frozen/stream")
		if err != nil {
			streamDone <- err
			return
		}
		defer resp.Body.Close()
		close(connected)
		_, err = io.Copy(io.Discard, resp.Body)
		streamDone <- err
	}()
	select {
	case <-connected:
	case err := <-streamDone:
		t.Fatalf("stream never connected: %v", err)
	case <-time.After(5 * time.Second):
		t.Fatal("stream connect timed out")
	}

	// Stop wakes the handler's FramesFrom wait; the listener close then
	// has no in-flight request left to wait on.
	d.Stop()
	closed := make(chan struct{})
	go func() { ts.Close(); close(closed) }()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("listener close blocked: in-flight handler never completed after Stop")
	}
	select {
	case <-streamDone:
	case <-time.After(5 * time.Second):
		t.Fatal("stream body never ended")
	}
}

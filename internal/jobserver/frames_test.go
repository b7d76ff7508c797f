package jobserver

import (
	"approxhadoop/internal/approx"
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"reflect"
	"sync"
	"testing"
	"time"

	"approxhadoop/internal/wire"
)

// fabricateJob installs a hand-built job state so FramesFrom can be
// unit-tested without timing games. Safe because tests run before/
// without the driver goroutine touching this id.
func fabricateJob(s *Service, id string, status JobStatus, frames int) {
	st := &JobState{ID: id, Status: status}
	for i := 0; i < frames; i++ {
		final := status == StatusDone && i == frames-1
		st.frames = append(st.frames, newJobFrame(i, float64(i), status, final, nil))
	}
	s.mu.Lock()
	s.states[id] = st
	s.mu.Unlock()
}

// decodeJob decodes an encoded job frame.
func decodeJob(t *testing.T, f *encFrame) *wire.JobFrame {
	t.Helper()
	wf, err := wire.DecodeJobFrame(f.bin)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	return wf
}

// frameSeq decodes an encoded frame's sequence number.
func frameSeq(t *testing.T, f *encFrame) int {
	t.Helper()
	return decodeJob(t, f).Seq
}

// followJob walks a job's frame log from cursor to its terminal status
// the way the HTTP handler does, decoding what it is handed.
func followJob(t *testing.T, s *Service, id string, cursor int) ([]*wire.JobFrame, JobStatus) {
	t.Helper()
	var frames []*wire.JobFrame
	for {
		fresh, status, next, err := s.FramesFrom(id, cursor, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range fresh {
			frames = append(frames, decodeJob(t, f))
		}
		cursor = next
		if status.Terminal() {
			return frames, status
		}
	}
}

// TestFramesFromDropToLatest: a live job with a subscriber more than
// maxLag frames behind skips the backlog and resumes at the newest
// frame — the drop is visible as a Seq gap, and the cursor lands past
// the end so the subscriber is caught up.
func TestFramesFromDropToLatest(t *testing.T) {
	s := New(Config{})
	defer s.Close()
	fabricateJob(s, "job-live", StatusRunning, 20)

	fresh, status, next, err := s.FramesFrom("job-live", 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	if status != StatusRunning {
		t.Fatalf("status = %s, want running", status)
	}
	if len(fresh) != 1 {
		t.Fatalf("lagging subscriber got %d frames, want 1 (drop to latest)", len(fresh))
	}
	if seq := frameSeq(t, fresh[0]); seq != 19 {
		t.Errorf("dropped-to frame has seq %d, want 19", seq)
	}
	if next != 20 {
		t.Errorf("cursor = %d, want 20", next)
	}

	// Within the lag budget nothing is dropped.
	fresh, _, _, err = s.FramesFrom("job-live", 17, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(fresh) != 3 {
		t.Errorf("in-budget subscriber got %d frames, want all 3", len(fresh))
	}
}

// TestFramesFromTerminalReplaysInFull: terminal jobs are history, not
// a live feed — every frame replays no matter how small the lag
// budget, so late readers still get the complete early-result series.
func TestFramesFromTerminalReplaysInFull(t *testing.T) {
	s := New(Config{})
	defer s.Close()
	fabricateJob(s, "job-done", StatusDone, 20)

	fresh, status, next, err := s.FramesFrom("job-done", 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if status != StatusDone {
		t.Fatalf("status = %s, want done", status)
	}
	if len(fresh) != 20 || next != 20 {
		t.Fatalf("terminal replay returned %d frames (cursor %d), want all 20", len(fresh), next)
	}
	for i, f := range fresh {
		if seq := frameSeq(t, f); seq != i {
			t.Fatalf("frame %d has seq %d", i, seq)
		}
	}
}

// TestStreamEncodeOnceFanout: 64 concurrent subscribers replaying a
// finished job's stream share the frame buffers encoded while the job
// ran — the fan-out itself performs zero wire encodes, and every
// subscriber receives byte-identical payloads.
func TestStreamEncodeOnceFanout(t *testing.T) {
	_, ts := startDaemon(t, Config{SnapshotEvery: 2}, false)
	spec := JobSpec{Name: "mcast", App: "total-size", Blocks: 64, LinesPerBlock: 100, Seed: 4}
	var idResp struct {
		ID string `json:"id"`
	}
	if code := postJSON(t, ts.URL+"/v1/jobs", spec, &idResp); code != http.StatusOK {
		t.Fatalf("submit: HTTP %d", code)
	}
	// First read drives the job to terminal; all encodes happen here.
	first := readBinaryStream(t, ts.URL, idResp.ID)
	if bytes.Count(first, []byte{}) == 0 {
		t.Fatal("empty stream")
	}

	const subs = 64
	before := wire.Encodes()
	bodies := make([][]byte, subs)
	var wg sync.WaitGroup
	for i := 0; i < subs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			bodies[i] = readBinaryStream(t, ts.URL, idResp.ID)
		}(i)
	}
	wg.Wait()
	if delta := wire.Encodes() - before; delta != 0 {
		t.Errorf("fan-out to %d subscribers performed %d encodes, want 0 (one shared buffer per frame)", subs, delta)
	}
	for i, b := range bodies {
		if !bytes.Equal(b, first) {
			t.Fatalf("subscriber %d received different bytes than the first reader", i)
		}
	}
}

// readBinaryStream fetches a job's whole binary stream body.
func readBinaryStream(t *testing.T, base, id string) []byte {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, base+"/v1/jobs/"+id+"/stream", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept", wire.ContentType)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream %s: HTTP %d", id, resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != wire.ContentType {
		t.Fatalf("Content-Type = %q, want %q (binary negotiation failed)", ct, wire.ContentType)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// TestSlowSubscriberDoesNotDelayOthers: one watcher opens the stream
// and never reads a byte; a second watcher and the job itself must
// proceed to completion anyway — the engine never writes to
// subscriber sockets, and each handler blocks only its own goroutine.
func TestSlowSubscriberDoesNotDelayOthers(t *testing.T) {
	_, ts := startDaemon(t, Config{SnapshotEvery: 2}, false)
	spec := JobSpec{Name: "stuck-watcher", App: "clients", Blocks: 64, LinesPerBlock: 100, Seed: 9}
	var idResp struct {
		ID string `json:"id"`
	}
	if code := postJSON(t, ts.URL+"/v1/jobs", spec, &idResp); code != http.StatusOK {
		t.Fatalf("submit: HTTP %d", code)
	}

	// The stalled watcher: a raw connection that sends the request and
	// then never reads, with a tiny lag budget so catching it up later
	// would drop to latest rather than replay a backlog.
	u, err := url.Parse(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	conn, err := net.Dial("tcp", u.Host)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	fmt.Fprintf(conn, "GET /v1/jobs/%s/stream?lag=2 HTTP/1.1\r\nHost: %s\r\n\r\n", idResp.ID, u.Host)

	// The healthy watcher must reach the terminal frame promptly.
	done := make(chan struct{})
	go func() {
		defer close(done)
		readBinaryStream(t, ts.URL, idResp.ID)
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("healthy subscriber starved by a stalled one")
	}

	// And the stalled connection is still alive (the server didn't
	// crash on it): reading now yields a valid HTTP response.
	if err := conn.SetReadDeadline(time.Now().Add(10 * time.Second)); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(conn)
	line, err := br.ReadString('\n')
	if err != nil {
		t.Fatalf("stalled watcher cannot read its response: %v", err)
	}
	if want := "HTTP/1.1 200"; len(line) < len(want) || line[:len(want)] != want {
		t.Fatalf("stalled watcher got %q, want a 200 stream", line)
	}
}

// TestCancelRestampLeavesSubscribersAlone is the batch twin of
// TestStreamTerminalFrameLeavesSnapshotsAlone: a subscriber reads the
// frames FramesFrom handed it after dropping the service lock, so the
// cancel's restamp must publish a new last frame beside the old one,
// never write into that slice.
func TestCancelRestampLeavesSubscribersAlone(t *testing.T) {
	svc := New(Config{Workers: 1, SnapshotEvery: 1})
	defer svc.Close()
	id, err := svc.Submit(JobSpec{App: "clients", Blocks: 240, LinesPerBlock: 50, Seed: 9, Approximation: approx.Approximation{SampleRatio: 0.5}})
	if err != nil {
		t.Fatal(err)
	}
	for st, _ := svc.JobInfo(id); len(st.frames) < 3; st, _ = svc.JobInfo(id) {
		if !svc.Engine().Step() {
			t.Fatal("job ended before its third snapshot")
		}
	}
	held, status, next, err := svc.FramesFrom(id, 1, 0)
	if err != nil || status != StatusRunning || len(held) != 2 || next != 3 {
		t.Fatalf("live read: %d frames, status %s, next %d, err %v", len(held), status, next, err)
	}
	last := held[1]
	if err := svc.Cancel(id); err != nil {
		t.Fatal(err)
	}
	svc.Engine().Run()
	if held[1] != last || decodeJob(t, held[1]).Status != string(StatusRunning) {
		t.Errorf("cancel wrote to a subscriber's frames: its last one now reads %s", decodeJob(t, held[1]).Status)
	}
	fresh, status, _, err := svc.FramesFrom(id, 2, 0)
	if err != nil || status != StatusCanceled || len(fresh) != 1 {
		t.Fatalf("terminal read: %d frames, status %s, err %v", len(fresh), status, err)
	}
	if f := decodeJob(t, fresh[0]); f.Status != string(StatusCanceled) || f.Final || f.Seq != 2 ||
		!reflect.DeepEqual(f.Estimates, decodeJob(t, last).Estimates) {
		t.Errorf("terminal frame is seq %d, %s, final=%v, %d estimates; want seq 2, canceled, the third snapshot's estimates", f.Seq, f.Status, f.Final, len(f.Estimates))
	}
}

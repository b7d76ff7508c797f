package jobserver

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"approxhadoop/internal/wire"
)

func startDaemon(t *testing.T, cfg Config) (*Daemon, *httptest.Server) {
	t.Helper()
	d := NewFleetDaemon([]*Service{New(cfg)}, false)
	ts := httptest.NewServer(d.Handler())
	// Stop first: it closes the service, waking any handler blocked in
	// FramesFrom, so the listener close (which waits for in-flight
	// requests) cannot deadlock on a stuck stream.
	t.Cleanup(func() { d.Stop(); ts.Close() })
	return d, ts
}

func postJSON(t *testing.T, url string, body, out any) int {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decode %s: %v", url, err)
		}
	}
	return resp.StatusCode
}

func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decode %s: %v", url, err)
		}
	}
	return resp.StatusCode
}

// TestHTTPSubmitResultStream is the live-mode smoke test: submit over
// HTTP, wait for completion, fetch the result, and verify the stream
// replays every snapshot ending in a final frame that matches it.
func TestHTTPSubmitResultStream(t *testing.T) {
	_, ts := startDaemon(t, Config{SnapshotEvery: 5})

	spec := JobSpec{Name: "smoke", App: "total-size", Blocks: 40, LinesPerBlock: 100, Seed: 3}
	var idResp struct {
		ID string `json:"id"`
	}
	if code := postJSON(t, ts.URL+"/v1/jobs", spec, &idResp); code != http.StatusOK {
		t.Fatalf("submit: HTTP %d", code)
	}

	// The driver runs virtual time as fast as it can; poll briefly.
	var state WireState
	deadline := time.Now().Add(5 * time.Second)
	for {
		if code := getJSON(t, ts.URL+"/v1/jobs/"+idResp.ID, &state); code != http.StatusOK {
			t.Fatalf("get: HTTP %d", code)
		}
		if state.Status.Terminal() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %s", state.Status)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if state.Status != StatusDone {
		t.Fatalf("job %s: %s %s", idResp.ID, state.Status, state.Err)
	}

	var result WireResult
	if code := getJSON(t, ts.URL+"/v1/jobs/"+idResp.ID+"/result", &result); code != http.StatusOK {
		t.Fatalf("result: HTTP %d", code)
	}
	if len(result.Outputs) == 0 {
		t.Fatal("empty result")
	}

	resp, err := http.Get(ts.URL + "/v1/jobs/" + idResp.ID + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var frames []*wire.JobFrame
	if err := wire.ReadJobFrames(resp.Body, false, func(f *wire.JobFrame) error {
		frames = append(frames, f)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(frames) == 0 {
		t.Fatal("no stream frames")
	}
	last := frames[len(frames)-1]
	if !last.Final {
		t.Errorf("last frame not final: %+v", last)
	}
	if !reflect.DeepEqual(last.Estimates, result.Outputs) {
		t.Errorf("final frame diverges from result:\n%+v\nvs\n%+v", last.Estimates, result.Outputs)
	}

	var st Stats
	if code := getJSON(t, ts.URL+"/v1/stats", &st); code != http.StatusOK {
		t.Fatalf("stats: HTTP %d", code)
	}
	if st.Done != 1 || st.Submitted != 1 {
		t.Errorf("stats: %+v", st)
	}
}

// TestHTTPSubmitJournaledBeforeAck: concurrent POSTs to a journaled
// daemon, some of them a bad app or past a queue of depth 2, are each
// answered 200, 400 or 429 — never 202 — and the reopened journal
// holds exactly one submit record per 200, under the id it answered.
func TestHTTPSubmitJournaledBeforeAck(t *testing.T) {
	path := tempJournal(t)
	j, _, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	svc := New(Config{MaxActive: 1, MaxQueue: 2, SnapshotEvery: -1})
	svc.UseJournal(j)
	d := NewFleetDaemon([]*Service{svc}, false)
	ts := httptest.NewServer(d.Handler())
	defer ts.Close()

	specs := GenerateTrace(8, 5)
	specs = append(specs, JobSpec{Name: "bad", App: "no-such-app"})
	type reply struct {
		code int
		id   string
	}
	replies := make([]reply, len(specs))
	var wg sync.WaitGroup
	for i, spec := range specs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var ack struct {
				ID string `json:"id"`
			}
			replies[i].code = postJSON(t, ts.URL+"/v1/jobs", spec, &ack)
			replies[i].id = ack.ID
		}()
	}
	wg.Wait()
	d.Stop()

	j2, recs, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	journaled := map[string]string{}
	for _, rec := range recs {
		if rec.Op != JournalSubmit {
			continue
		}
		if _, dup := journaled[rec.ID]; dup {
			t.Errorf("%s journaled twice", rec.ID)
		}
		journaled[rec.ID] = rec.Spec.Name
	}
	acked := 0
	for i, r := range replies {
		switch r.code {
		case http.StatusOK:
			acked++
			if name, ok := journaled[r.id]; !ok || name != specs[i].Name {
				t.Errorf("%s: 200 as %q, journaled as %q (found %v)", specs[i].Name, r.id, name, ok)
			}
		case http.StatusBadRequest, http.StatusTooManyRequests:
		default:
			t.Errorf("%s: HTTP %d", specs[i].Name, r.code)
		}
	}
	if replies[len(specs)-1].code == http.StatusOK {
		t.Error("unknown app answered 200")
	}
	if acked == 0 || acked != len(journaled) {
		t.Errorf("%d submits answered 200, %d journaled", acked, len(journaled))
	}
}

// TestHTTPReplayEndpoint runs a whole trace through /v1/replay and
// checks it against the engine-level Replay.
func TestHTTPReplayEndpoint(t *testing.T) {
	const n, seed = 8, 7
	cfg := Config{MaxQueue: n + 1, SnapshotEvery: -1}
	_, ts := startDaemon(t, cfg)

	trace := GenerateTrace(n, seed)
	var got []WireState
	if code := postJSON(t, ts.URL+"/v1/replay", trace, &got); code != http.StatusOK {
		t.Fatalf("replay: HTTP %d", code)
	}
	want := wireStates(New(cfg).Replay(trace))
	if !reflect.DeepEqual(got, want) {
		t.Errorf("HTTP replay differs from direct replay")
	}

	var list []WireState
	if code := getJSON(t, ts.URL+"/v1/jobs", &list); code != http.StatusOK {
		t.Fatalf("list: HTTP %d", code)
	}
	if len(list) != n {
		t.Errorf("list has %d jobs, want %d", len(list), n)
	}
}

// TestHTTPErrors covers the failure surface: bad specs, unknown ids,
// results before completion, and queue backpressure as 429.
func TestHTTPErrors(t *testing.T) {
	_, ts := startDaemon(t, Config{MaxActive: 1, MaxQueue: 1, SnapshotEvery: -1})

	if code := postJSON(t, ts.URL+"/v1/jobs", JobSpec{App: "no-such-app"}, nil); code != http.StatusBadRequest {
		t.Errorf("bad app: HTTP %d", code)
	}
	if code := getJSON(t, ts.URL+"/v1/jobs/job-9999", nil); code != http.StatusNotFound {
		t.Errorf("unknown id: HTTP %d", code)
	}
	if code := getJSON(t, ts.URL+"/v1/jobs/job-9999/result", nil); code != http.StatusNotFound {
		t.Errorf("unknown result: HTTP %d", code)
	}
	if code := getJSON(t, ts.URL+"/v1/jobs/job-9999/stream", nil); code != http.StatusNotFound {
		t.Errorf("unknown stream: HTTP %d", code)
	}
	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/job-9999", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown cancel: HTTP %d", resp.StatusCode)
	}

	// Wedge the driver: the wedge job's input generation happens inside
	// its Submit command on the driver goroutine, so the flood below is
	// admitted back to back with no chance for the queue to drain.
	wedgeDone := make(chan struct{})
	go func() {
		defer close(wedgeDone)
		buf, _ := json.Marshal(JobSpec{Name: "wedge", App: "total-size",
			Blocks: 20000, LinesPerBlock: 200, Seed: 1})
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(buf))
		if err == nil {
			resp.Body.Close()
		}
	}()
	time.Sleep(50 * time.Millisecond) // let the wedge reach the driver

	const flood = 24
	codes := make(chan int, flood)
	var wg sync.WaitGroup
	for i := 0; i < flood; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			spec := JobSpec{Name: fmt.Sprintf("flood-%02d", i), App: "total-size",
				Blocks: 40, LinesPerBlock: 100, Seed: int64(i)}
			codes <- postJSON(t, ts.URL+"/v1/jobs", spec, nil)
		}()
	}
	wg.Wait()
	close(codes)
	saw429 := 0
	for code := range codes {
		switch code {
		case http.StatusOK:
		case http.StatusTooManyRequests:
			saw429++
		default:
			t.Fatalf("flood submit: HTTP %d", code)
		}
	}
	if saw429 == 0 {
		t.Error("queue of depth 1 never pushed back with 429")
	}
	<-wedgeDone

	// Put the wedge out of its misery so teardown doesn't simulate
	// twenty thousand map tasks.
	var list []WireState
	getJSON(t, ts.URL+"/v1/jobs", &list)
	for _, st := range list {
		if !st.Status.Terminal() {
			req, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+st.ID, nil)
			if err != nil {
				t.Fatal(err)
			}
			if resp, err := http.DefaultClient.Do(req); err == nil {
				resp.Body.Close()
			}
		}
	}
}

// TestHTTPRejectsOutOfRangeSpecs: a spec the contract rejects is a 400
// whose error names the offending key. The first row is one the
// service used to run precisely after clamping both ratios; the size
// rows, one a stream's, would have allocated their whole input first.
func TestHTTPRejectsOutOfRangeSpecs(t *testing.T) {
	_, ts := startDaemon(t, Config{SnapshotEvery: -1})
	for body, key := range map[string]string{
		`{"app":"clients","controller":"static","sampleRatio":7,"dropRatio":-3}`: "sampleRatio",
		`{"app":"clients","sampleRatio":0.5,"confidence":1.5}`:                   "confidence",
		`{"app":"clients","dropRatio":1}`:                                        "dropRatio",
		`{"app":"clients","target":-0.05}`:                                       "target",
		`{"app":"clients","absoluteError":-1}`:                                   "absoluteError",
		`{"app":"clients","deadline":-30}`:                                       "deadline",
		`{"app":"clients","target":0.05,"pilot":true,"pilotRatio":1.5}`:          "pilotRatio",
		`{"app":"clients","sampleRatio":0.5,"target":0.05}`:                      "modes",
		`{"app":"clients","controller":"target"}`:                                "target",
		`{"app":"clients","controller":"sampled"}`:                               "controller",
		`{"app":"total-size","blocks":1000000000}`:                               "blocks",
		`{"app":"total-size","linesPerBlock":1000000}`:                           "linesPerBlock",
	} {
		var reply struct {
			Error string `json:"error"`
		}
		if code := postJSON(t, ts.URL+"/v1/jobs", json.RawMessage(body), &reply); code != http.StatusBadRequest || !strings.Contains(reply.Error, key) {
			t.Errorf("%s: HTTP %d %q, want 400 naming %s", body, code, reply.Error, key)
		}
	}
	var reply struct {
		Error string `json:"error"`
	}
	body := `{"app":"web-bytes","blocks":1000000000}`
	if code := postJSON(t, ts.URL+"/v1/streams", json.RawMessage(body), &reply); code != http.StatusBadRequest || !strings.Contains(reply.Error, "blocks") {
		t.Errorf("stream %s: HTTP %d %q, want 400 naming blocks", body, code, reply.Error)
	}
}

package main

import (
	"errors"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"approxhadoop/internal/jobserver"
	"approxhadoop/internal/stats"
)

// startDaemon serves an in-process daemon, optionally behind wrap, and
// returns a client for it.
func startDaemon(t *testing.T, wrap func(http.Handler) http.Handler) *client {
	t.Helper()
	d := jobserver.NewFleetDaemon([]*jobserver.Service{jobserver.New(jobserver.Config{})}, false)
	h := d.Handler()
	if wrap != nil {
		h = wrap(h)
	}
	ts := httptest.NewServer(h)
	// Stop first: it wakes any handler blocked on a stream, so the
	// listener close cannot wait on one.
	t.Cleanup(func() { d.Stop(); ts.Close() })
	return &client{base: ts.URL, retries: 4, rng: stats.NewRand(1)}
}

// firstSubmit wraps the daemon's handler so that answer serves the
// first POST /v1/jobs; every other request goes to the daemon.
func firstSubmit(answer func(daemon http.Handler, w http.ResponseWriter, r *http.Request)) func(http.Handler) http.Handler {
	var seen atomic.Bool
	return func(h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.Method == http.MethodPost && r.URL.Path == "/v1/jobs" && !seen.Swap(true) {
				answer(h, w, r)
				return
			}
			h.ServeHTTP(w, r)
		})
	}
}

// requireOneJobPerOp checks that the daemon holds exactly one job for
// each of the n ops, by the name LoadSpec gives it.
func requireOneJobPerOp(t *testing.T, c *client, n int) {
	t.Helper()
	var states []jobserver.WireState
	if err := c.get("/v1/jobs", &states); err != nil {
		t.Fatal(err)
	}
	names := map[string]int{}
	for _, st := range states {
		names[st.Spec.Name]++
	}
	if len(states) != n {
		t.Errorf("daemon holds %d jobs for %d ops: %v", len(states), n, names)
	}
	for op := 0; op < n; op++ {
		if name := jobserver.LoadSpec(1, op, 0).Name; names[name] != 1 {
			t.Errorf("%s ran %d times", name, names[name])
		}
	}
}

func TestLoadgenClosedLoop(t *testing.T) {
	for _, tc := range []struct {
		name          string
		watch, binary bool
	}{
		{"poll", false, false},
		{"watch-jsonl", true, false},
		{"watch-binary", true, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := startDaemon(t, nil)
			const n = 6
			lg := loadgen{n: n, clients: 3, seed: 1, tenants: 4, watch: tc.watch, binary: tc.binary, timeout: time.Minute}
			rep := lg.run(c)
			if rep.Ops != n || rep.Errors != 0 {
				t.Fatalf("ops %d errors %d, want %d and 0", rep.Ops, rep.Errors, n)
			}
			if len(rep.Submits) != n || len(rep.Completes) != n {
				t.Errorf("%d submit and %d complete latencies for %d ops", len(rep.Submits), len(rep.Completes), n)
			}
			if tc.watch && (rep.Frames == 0 || c.streamed.Load() == 0) {
				t.Errorf("watching read %d frames, %d bytes", rep.Frames, c.streamed.Load())
			}
			if !tc.watch && (rep.Frames != 0 || c.streamed.Load() != 0) {
				t.Errorf("polling read %d frames, %d bytes", rep.Frames, c.streamed.Load())
			}
			requireOneJobPerOp(t, c, n)
		})
	}
}

// TestLoadgenUnkeyed503NotRetried: http.TimeoutHandler may answer 503
// after the daemon admitted the job, so an unkeyed submit that gets a
// 503 must not be sent again — the op fails instead of running twice.
func TestLoadgenUnkeyed503NotRetried(t *testing.T) {
	c := startDaemon(t, firstSubmit(func(daemon http.Handler, w http.ResponseWriter, r *http.Request) {
		daemon.ServeHTTP(httptest.NewRecorder(), r)
		http.Error(w, `{"error":"request timed out"}`, http.StatusServiceUnavailable)
	}))
	const n = 4
	rep := loadgen{n: n, clients: 1, seed: 1, timeout: time.Minute}.run(c)
	if rep.Ops != n-1 || rep.Errors != 1 {
		t.Errorf("ops %d errors %d, want %d and 1", rep.Ops, rep.Errors, n-1)
	}
	if b := c.bounced.Load(); b != 0 {
		t.Errorf("%d bounces retried, want 0", b)
	}
	requireOneJobPerOp(t, c, n)
}

// TestLoadgen429Retried: a 429 is sent before anything is created, so
// even an unkeyed submit retries it, without a Retry-After hint too.
func TestLoadgen429Retried(t *testing.T) {
	c := startDaemon(t, firstSubmit(func(_ http.Handler, w http.ResponseWriter, _ *http.Request) {
		http.Error(w, `{"error":"admission queue full"}`, http.StatusTooManyRequests)
	}))
	const n = 4
	rep := loadgen{n: n, clients: 2, seed: 1, timeout: time.Minute}.run(c)
	if rep.Ops != n || rep.Errors != 0 {
		t.Errorf("ops %d errors %d, want %d and 0", rep.Ops, rep.Errors, n)
	}
	if b := c.bounced.Load(); b != 1 {
		t.Errorf("%d bounces retried, want 1", b)
	}
	requireOneJobPerOp(t, c, n)
}

func TestRetriable(t *testing.T) {
	transport := errors.New("connection refused")
	for _, tc := range []struct {
		name       string
		err        error
		idempotent bool
		want       bool
	}{
		{"idempotent transport error", transport, true, true},
		{"idempotent 429", &apiError{Code: http.StatusTooManyRequests}, true, true},
		{"idempotent 503", &apiError{Code: http.StatusServiceUnavailable}, true, true},
		{"idempotent 404", &apiError{Code: http.StatusNotFound}, true, false},
		{"unkeyed POST transport error", transport, false, false},
		{"unkeyed POST 429", &apiError{Code: http.StatusTooManyRequests}, false, true},
		{"unkeyed POST 503", &apiError{Code: http.StatusServiceUnavailable}, false, false},
		{"unkeyed POST 400", &apiError{Code: http.StatusBadRequest}, false, false},
	} {
		if got := retriable(tc.err, tc.idempotent); got != tc.want {
			t.Errorf("%s: retriable = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestPercentilesNearestRank pins percentiles to nearest rank: every
// answer is a sample, never an interpolation between two.
func TestPercentilesNearestRank(t *testing.T) {
	ramp := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = float64(n - i) // descending: percentiles sorts a copy
		}
		return s
	}
	for _, tc := range []struct {
		name string
		in   []float64
		want [4]float64 // p50, p95, p99, max
	}{
		{"empty", nil, [4]float64{0, 0, 0, 0}},
		{"one", []float64{7}, [4]float64{7, 7, 7, 7}},
		{"two", []float64{9, 1}, [4]float64{1, 9, 9, 9}},
		{"ten", ramp(10), [4]float64{5, 10, 10, 10}},
		{"twenty", ramp(20), [4]float64{10, 19, 20, 20}},
		{"hundred", ramp(100), [4]float64{50, 95, 99, 100}},
		{"two hundred", ramp(200), [4]float64{100, 190, 198, 200}},
	} {
		in := append([]float64(nil), tc.in...)
		var got [4]float64
		got[0], got[1], got[2], got[3] = percentiles(in)
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: p50/p95/p99/max = %v, want %v", tc.name, got, tc.want)
		}
		if !reflect.DeepEqual(in, tc.in) {
			t.Errorf("%s: percentiles reordered its input", tc.name)
		}
	}
}

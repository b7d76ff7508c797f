package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"approxhadoop/internal/jobserver"
	"approxhadoop/internal/wire"
)

// client is a JSON-over-HTTP wrapper around the approxd API with
// seeded-backoff retries for transient failures.
type client struct {
	base    string
	retries int

	// rng drives backoff jitter; loadgen/smoke retry from many
	// goroutines, so draws are mutex-guarded.
	mu  sync.Mutex
	rng *rand.Rand

	// bounced counts 429/503 answers that were retried; streamed counts
	// bytes read from frame streams. loadgen reports both.
	bounced  atomic.Int64
	streamed atomic.Int64
}

// apiError is the daemon's {"error": ...} payload with its HTTP status
// and any Retry-After hint.
type apiError struct {
	Code       int
	Msg        string
	RetryAfter time.Duration
}

func (e *apiError) Error() string { return fmt.Sprintf("HTTP %d: %s", e.Code, e.Msg) }

// drainClose discards a response's unread body and closes it, so the
// keep-alive connection is reusable. Errors are reported to stderr —
// there is no caller decision to change, but they should not vanish.
// The drain is bounded: error paths may abandon a still-streaming body,
// and reading it to completion could mean waiting out the whole job.
func drainClose(resp *http.Response) {
	if _, err := io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<20)); err != nil {
		fmt.Fprintf(os.Stderr, "approxctl: draining response body: %v\n", err)
	}
	if err := resp.Body.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "approxctl: closing response body: %v\n", err)
	}
}

// retriable reports whether err is worth retrying: connection-level
// failures (the daemon may be mid-restart) and explicit backpressure
// (429 queue-full, 503 draining), never other API errors — a 400 or
// 404 will not improve with patience. Only an idempotent request (a
// GET, a DELETE or a keyed POST) retries a failure that may have
// reached the daemon: an unkeyed POST retries a 429 alone, which
// approxd sends only before it creates anything, never a 503, which
// http.TimeoutHandler may send after the job was admitted.
func retriable(err error, idempotent bool) bool {
	var ae *apiError
	if errors.As(err, &ae) {
		return ae.Code == http.StatusTooManyRequests || idempotent && ae.Code == http.StatusServiceUnavailable
	}
	return idempotent && err != nil
}

// retry reports whether the failed attempt is retried; if so it counts
// a 429/503 bounce and sleeps out the backoff first.
func (c *client) retry(attempt int, err error, idempotent bool) bool {
	if attempt >= c.retries || !retriable(err, idempotent) {
		return false
	}
	var ae *apiError
	if errors.As(err, &ae) {
		c.bounced.Add(1)
	}
	time.Sleep(c.backoff(attempt, err))
	return true
}

// backoff returns the pause before retry `attempt`: exponential from
// 50 ms capped at 2 s, scaled by seeded jitter in [0.5, 1.0], and
// floored by any server-provided Retry-After.
func (c *client) backoff(attempt int, err error) time.Duration {
	d := 50 * time.Millisecond
	for i := 0; i < attempt && d < 2*time.Second; i++ {
		d *= 2
	}
	if d > 2*time.Second {
		d = 2 * time.Second
	}
	c.mu.Lock()
	jitter := 0.5 + 0.5*c.rng.Float64()
	c.mu.Unlock()
	d = time.Duration(float64(d) * jitter)
	var ae *apiError
	if errors.As(err, &ae) && ae.RetryAfter > d {
		d = ae.RetryAfter
	}
	return d
}

func (c *client) do(method, path string, in, out any) error {
	// GETs and DELETEs (cancel) are idempotent by construction; a POST
	// is idempotent only when keyed (see submit).
	return c.doRetry(method, path, in, out, method != http.MethodPost)
}

func (c *client) doRetry(method, path string, in, out any, idempotent bool) error {
	for attempt := 0; ; attempt++ {
		err := c.doOnce(method, path, in, out)
		if err == nil || !c.retry(attempt, err, idempotent) {
			return err
		}
	}
}

func (c *client) doOnce(method, path string, in, out any) error {
	var body io.Reader
	if in != nil {
		buf, err := json.Marshal(in)
		if err != nil {
			return err
		}
		body = bytes.NewReader(buf)
	}
	req, err := http.NewRequest(method, c.base+path, body)
	if err != nil {
		return err
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer drainClose(resp)
	if resp.StatusCode >= 400 {
		return apiErrorFrom(resp)
	}
	if out != nil {
		return json.NewDecoder(resp.Body).Decode(out)
	}
	return nil
}

// apiErrorFrom builds an apiError from an error response, tolerating
// non-JSON bodies (a bare status code is an acceptable fallback).
func apiErrorFrom(resp *http.Response) *apiError {
	ae := &apiError{Code: resp.StatusCode}
	var msg struct {
		Error string `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&msg); err == nil {
		ae.Msg = msg.Error
	}
	if secs, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && secs > 0 {
		ae.RetryAfter = time.Duration(secs) * time.Second
	}
	return ae
}

func (c *client) get(path string, out any) error { return c.do(http.MethodGet, path, nil, out) }
func (c *client) post(path string, in, out any) error {
	return c.do(http.MethodPost, path, in, out)
}

// submit POSTs one spec. Keyed submissions retry freely — the daemon
// deduplicates by the journaled idempotency key, so a retry that races
// a crash can at worst be answered with the original job's id.
func (c *client) submit(spec jobserver.JobSpec) (string, error) {
	var resp struct {
		ID string `json:"id"`
	}
	err := c.doRetry(http.MethodPost, "/v1/jobs", spec, &resp, spec.IdempotencyKey != "")
	return resp.ID, err
}

// waitTerminal polls a job's state every 2 ms until it is terminal or
// the deadline passes. The interval is fine enough that loadgen's
// completion latencies (about 10 ms for a small job) are not swamped
// by the polling quantum.
func (c *client) waitTerminal(id string, deadline time.Time) (jobserver.WireState, error) {
	for {
		var st jobserver.WireState
		if err := c.get("/v1/jobs/"+id, &st); err != nil {
			return st, err
		}
		if st.Status.Terminal() {
			return st, nil
		}
		if time.Now().After(deadline) {
			return st, fmt.Errorf("job %s still %s at deadline", id, st.Status)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// callerErr wraps an error returned by a stream callback, so the
// reconnect loop can tell "the caller aborted" from "the transport
// died" — only the latter is retried.
type callerErr struct{ err error }

func (e callerErr) Error() string { return e.err.Error() }

// streamLoop follows a job's stream, JSONL or (binary) the negotiated
// length-prefixed frame format, invoking fn per frame until the
// terminal frame. A dropped connection — including a daemon
// crash-and-restart, where the recovered job re-emits the same
// deterministic snapshots — reconnects with ?from=<lastSeq+1> and
// resumes without duplicating frames. Any frame of progress refills
// the retry budget.
func (c *client) streamLoop(id string, binary bool, fn func(*wire.JobFrame) error) error {
	last := -1 // highest Seq seen
	sawTerminal := false
	for attempt := 0; ; attempt++ {
		err := c.streamOnce(id, last+1, binary, func(f *wire.JobFrame) error {
			if f.Seq > last {
				last = f.Seq
			}
			if jobserver.JobStatus(f.Status).Terminal() {
				sawTerminal = true
			}
			attempt = 0
			if err := fn(f); err != nil {
				return callerErr{err}
			}
			return nil
		})
		var ce callerErr
		if errors.As(err, &ce) {
			return ce.err
		}
		if err == nil {
			if sawTerminal {
				return nil
			}
			// A clean EOF without a terminal frame is a truncated
			// stream (e.g. the server died between frames); resume.
			err = fmt.Errorf("stream for %s ended before a terminal frame", id)
		}
		if !c.retry(attempt, err, true) {
			return err
		}
	}
}

// streamOnce runs one connection's worth of frames through fn.
func (c *client) streamOnce(id string, from int, binary bool, fn func(*wire.JobFrame) error) error {
	req, err := http.NewRequest(http.MethodGet, c.base+"/v1/jobs/"+id+"/stream?from="+strconv.Itoa(from), nil)
	if err != nil {
		return err
	}
	if binary {
		req.Header.Set("Accept", wire.ContentType)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer drainClose(resp)
	if resp.StatusCode != http.StatusOK {
		return apiErrorFrom(resp)
	}
	return wire.ReadJobFrames(countingReader{resp.Body, &c.streamed}, binary, fn)
}

// countingReader adds the bytes read through it to n.
type countingReader struct {
	r io.Reader
	n *atomic.Int64
}

func (cr countingReader) Read(p []byte) (int, error) {
	n, err := cr.r.Read(p)
	cr.n.Add(int64(n))
	return n, err
}

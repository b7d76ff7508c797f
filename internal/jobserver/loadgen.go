// Closed-loop load generation against a live daemon.
//
// The original approxctl loadgen was open-loop: it fired every trace
// job from its own goroutine and then polled them all, which measures
// nothing but the submission burst. RunClosedLoop is a real service
// benchmark: C clients each run submit -> observe-terminal -> next in
// a closed loop over plain HTTP, recording per-request latency, so the
// report carries sustained QPS and submit/complete percentiles — the
// numbers the sharded daemon exists to improve (approxbench's
// "service" experiment compares 1-shard/JSON against N-shard/binary
// with exactly this driver).
//
// Wall-clock time is correct here by design: the loadgen measures the
// daemon process from outside, where real seconds are the unit — the
// virtual clock belongs to the engines on the other side of the HTTP
// boundary.
package jobserver

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"approxhadoop/internal/approx"
	"approxhadoop/internal/wire"
)

// LoadConfig configures one closed-loop run.
type LoadConfig struct {
	// Base is the daemon's base URL (e.g. "http://127.0.0.1:7070").
	Base string
	// Clients is the closed-loop concurrency (default 4).
	Clients int
	// Ops is the total number of jobs to run through the loop
	// (default 16).
	Ops int
	// Seed makes the generated spec sequence deterministic.
	Seed int64
	// Tenants spreads ops across this many tenant identities (default
	// 8): tenants are the placement keys, so more tenants exercise more
	// shards.
	Tenants int
	// Watch follows each job's snapshot stream to its terminal frame
	// instead of polling job state — the fan-out path under test.
	Watch bool
	// Binary negotiates the binary wire format for watched streams.
	Binary bool
	// Timeout bounds each op (default 60s); an op past it counts as an
	// error and the client moves on.
	Timeout time.Duration
}

// LoadReport is the closed-loop run's measurement.
type LoadReport struct {
	Ops      int     `json:"ops"`      // ops completed successfully
	Errors   int     `json:"errors"`   // ops abandoned (transport/timeout)
	Rejected int     `json:"rejected"` // 429/503 bounces absorbed by retry
	Clients  int     `json:"clients"`
	WallSecs float64 `json:"wallSecs"`
	QPS      float64 `json:"qps"` // completed ops per wall second

	// Submit latency: POST /v1/jobs acknowledged, in milliseconds.
	SubmitP50 float64 `json:"submitP50ms"`
	SubmitP95 float64 `json:"submitP95ms"`
	SubmitP99 float64 `json:"submitP99ms"`
	SubmitMax float64 `json:"submitMaxMs"`
	// Complete latency: submit start to terminal state observed.
	CompleteP50 float64 `json:"completeP50ms"`
	CompleteP95 float64 `json:"completeP95ms"`
	CompleteP99 float64 `json:"completeP99ms"`
	CompleteMax float64 `json:"completeMaxMs"`

	// Stream accounting when Watch is set.
	Frames      int   `json:"frames,omitempty"`
	StreamBytes int64 `json:"streamBytes,omitempty"`
}

// LoadSpec is the op'th generated job: small (so the loop turns over
// quickly), deterministic in (seed, op), and tenant-labeled so a
// sharded daemon spreads the load by placement key.
func LoadSpec(seed int64, op, tenants int) JobSpec {
	if tenants <= 0 {
		tenants = 8
	}
	spec := JobSpec{
		Name:          fmt.Sprintf("load-%04d", op),
		App:           traceApps[op%len(traceApps)],
		Blocks:        12,
		LinesPerBlock: 80,
		Seed:          seed*1009 + int64(op),
		Tenant:        fmt.Sprintf("tenant-%02d", op%tenants),
		Approximation: approx.Approximation{SampleRatio: 0.25},
	}
	return spec
}

// RunClosedLoop drives cfg.Clients concurrent closed loops until
// cfg.Ops jobs have been pulled through the daemon, and reports
// latency percentiles and sustained QPS.
func RunClosedLoop(cfg LoadConfig) LoadReport {
	if cfg.Clients <= 0 {
		cfg.Clients = 4
	}
	if cfg.Ops <= 0 {
		cfg.Ops = 16
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 60 * time.Second
	}
	type clientStats struct {
		submits, completes []float64
		errors, rejected   int
		ops                int
		frames             int
		bytes              int64
	}
	var next atomic.Int64
	perClient := make([]clientStats, cfg.Clients)
	var wg sync.WaitGroup
	start := time.Now()
	for ci := 0; ci < cfg.Clients; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			cs := &perClient[ci]
			for {
				op := int(next.Add(1)) - 1
				if op >= cfg.Ops {
					return
				}
				spec := LoadSpec(cfg.Seed, op, cfg.Tenants)
				deadline := time.Now().Add(cfg.Timeout)
				t0 := time.Now()
				id, rejects, err := submitWithRetry(cfg.Base, spec, deadline)
				cs.rejected += rejects
				if err != nil {
					cs.errors++
					continue
				}
				cs.submits = append(cs.submits, msSince(t0))
				if cfg.Watch {
					frames, n, werr := watchToTerminal(cfg.Base, id, cfg.Binary, deadline)
					cs.frames += frames
					cs.bytes += n
					err = werr
				} else {
					err = pollTerminal(cfg.Base, id, deadline)
				}
				if err != nil {
					cs.errors++
					continue
				}
				cs.completes = append(cs.completes, msSince(t0))
				cs.ops++
			}
		}(ci)
	}
	wg.Wait()
	wall := time.Since(start).Seconds()

	rep := LoadReport{Clients: cfg.Clients, WallSecs: wall}
	var submits, completes []float64
	for i := range perClient {
		cs := &perClient[i]
		rep.Ops += cs.ops
		rep.Errors += cs.errors
		rep.Rejected += cs.rejected
		rep.Frames += cs.frames
		rep.StreamBytes += cs.bytes
		submits = append(submits, cs.submits...)
		completes = append(completes, cs.completes...)
	}
	if wall > 0 {
		rep.QPS = float64(rep.Ops) / wall
	}
	rep.SubmitP50, rep.SubmitP95, rep.SubmitP99, rep.SubmitMax = percentiles(submits)
	rep.CompleteP50, rep.CompleteP95, rep.CompleteP99, rep.CompleteMax = percentiles(completes)
	return rep
}

func msSince(t time.Time) float64 { return float64(time.Since(t)) / float64(time.Millisecond) }

// percentiles returns p50/p95/p99/max by nearest rank over a copy.
func percentiles(samples []float64) (p50, p95, p99, max float64) {
	if len(samples) == 0 {
		return 0, 0, 0, 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	rank := func(p float64) float64 {
		i := int(p*float64(len(s))+0.999999) - 1
		if i < 0 {
			i = 0
		}
		if i >= len(s) {
			i = len(s) - 1
		}
		return s[i]
	}
	return rank(0.50), rank(0.95), rank(0.99), s[len(s)-1]
}

// submitWithRetry POSTs one spec, absorbing backpressure (429/503)
// with short sleeps until the deadline. Returns the job id and how
// many bounces were absorbed.
func submitWithRetry(base string, spec JobSpec, deadline time.Time) (string, int, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return "", 0, err
	}
	rejects := 0
	for {
		resp, err := http.Post(base+"/v1/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			return "", rejects, err
		}
		if resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable {
			discard(resp)
			rejects++
			if time.Now().After(deadline) {
				return "", rejects, fmt.Errorf("jobserver: submit %s still bouncing (HTTP %d) at deadline", spec.Name, resp.StatusCode)
			}
			time.Sleep(5 * time.Millisecond)
			continue
		}
		if resp.StatusCode != http.StatusOK {
			discard(resp)
			return "", rejects, fmt.Errorf("jobserver: submit %s: HTTP %d", spec.Name, resp.StatusCode)
		}
		var out struct {
			ID string `json:"id"`
		}
		err = json.NewDecoder(resp.Body).Decode(&out)
		discard(resp)
		if err != nil {
			return "", rejects, err
		}
		return out.ID, rejects, nil
	}
}

// pollTerminal polls job state until terminal.
func pollTerminal(base, id string, deadline time.Time) error {
	for {
		resp, err := http.Get(base + "/v1/jobs/" + id)
		if err != nil {
			return err
		}
		var st WireState
		err = json.NewDecoder(resp.Body).Decode(&st)
		discard(resp)
		if err != nil {
			return err
		}
		if st.Status.Terminal() {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("jobserver: job %s still %s at deadline", id, st.Status)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// watchToTerminal follows a job's stream (JSONL or binary) to its
// terminal frame, returning the frame count and bytes read.
func watchToTerminal(base, id string, binary bool, deadline time.Time) (int, int64, error) {
	req, err := http.NewRequest(http.MethodGet, base+"/v1/jobs/"+id+"/stream", nil)
	if err != nil {
		return 0, 0, err
	}
	if binary {
		req.Header.Set("Accept", wire.ContentType)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return 0, 0, err
	}
	defer discard(resp)
	if resp.StatusCode != http.StatusOK {
		return 0, 0, fmt.Errorf("jobserver: stream %s: HTTP %d", id, resp.StatusCode)
	}
	counted := &countReader{r: resp.Body}
	frames, terminal := 0, false
	err = wire.ReadJobFrames(counted, binary, func(f *wire.JobFrame) error {
		frames++
		terminal = JobStatus(f.Status).Terminal()
		if !terminal && time.Now().After(deadline) {
			return fmt.Errorf("jobserver: stream %s still open at deadline", id)
		}
		return nil
	})
	if err == nil && !terminal {
		err = fmt.Errorf("jobserver: stream %s ended before a terminal frame", id)
	}
	return frames, counted.n, err
}

// countReader counts bytes as they pass through.
type countReader struct {
	r io.Reader
	n int64
}

func (c *countReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// discard drains and closes a response body so the keep-alive
// connection is reusable; loadgen tolerates drain errors silently (the
// op's outcome was already decided).
func discard(resp *http.Response) {
	//lint:ignore errcheck drain errors cannot change the op's already-decided outcome
	_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<20))
	//lint:ignore errcheck close errors cannot change the op's already-decided outcome
	_ = resp.Body.Close()
}

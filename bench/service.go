package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"approxhadoop/internal/cluster"
	"approxhadoop/internal/jobserver"
	"approxhadoop/internal/mapreduce"
	"approxhadoop/internal/wire"
)

// service-journaled: an in-process approxd on loopback HTTP, P shards
// each with its own journal segment, driven by a closed loop of P
// clients (one connection each): POST a small job, follow its binary
// snapshot stream to the terminal frame, repeat. Callers that wait for
// their reply make a closed loop; a slow daemon receives less load.

const (
	serviceTenants = 8
	// serviceSnapshotEvery (virtual seconds) is tight enough that the
	// median job streams at least four frames.
	serviceSnapshotEvery = 1.0
	// serviceCheckEvery: every n-th op's terminal estimates are compared
	// with a direct run of the same spec after the timed phase.
	serviceCheckEvery = 50
	requestTimeout    = 60 * time.Second
	// warmOpBase offsets warm-up op indices so the measured ops are
	// always ops 0, 1, 2, ... of the run's seed.
	warmOpBase = 1 << 20
)

// serviceDaemon is a booted daemon and what is needed to stop it.
type serviceDaemon struct {
	base string
	dir  string // journal segments; removed on stop
	d    *jobserver.Daemon
	srv  *http.Server
	done chan struct{} // closed when Serve returns
}

// bootDaemon builds the daemon the way jobserver.Serve does — per-shard
// config, service, journal segment, recovery — and serves its handler
// on a loopback listener.
func bootDaemon(cfg *runConfig) (*serviceDaemon, error) {
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(cfg.outDir, "journal-")
	if err != nil {
		return nil, err
	}
	cfgs := jobserver.ShardConfigs(jobserver.Config{SnapshotEvery: serviceSnapshotEvery}, cfg.procs)
	svcs := make([]*jobserver.Service, 0, len(cfgs))
	fail := func(err error) (*serviceDaemon, error) {
		for _, svc := range svcs {
			svc.Close()
		}
		os.RemoveAll(dir)
		return nil, err
	}
	for i, c := range cfgs {
		svc := jobserver.New(c)
		j, recs, err := jobserver.OpenJournal(filepath.Join(dir, fmt.Sprintf("wal.shard%d", i)))
		if err != nil {
			return fail(err)
		}
		svc.UseJournal(j)
		svcs = append(svcs, svc)
		if _, err := svc.Recover(recs); err != nil {
			return fail(err)
		}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fail(err)
	}
	sd := &serviceDaemon{
		base: "http://" + ln.Addr().String(),
		dir:  dir,
		d:    jobserver.NewFleetDaemon(svcs, false),
		done: make(chan struct{}),
	}
	sd.srv = &http.Server{Handler: sd.d.Handler()}
	go func() {
		defer close(sd.done)
		sd.srv.Serve(ln) // returns ErrServerClosed on stop
	}()
	return sd, nil
}

// stop shuts the daemon down, waits for its goroutines and removes the
// journal directory.
func (sd *serviceDaemon) stop() {
	sd.d.Stop() // wakes stream handlers so Close does not cut them mid-frame
	sd.srv.Close()
	<-sd.done
	os.RemoveAll(sd.dir)
}

// loadSpec is the op-th job of the run.
func loadSpec(cfg *runConfig, op int) jobserver.JobSpec {
	spec := jobserver.LoadSpec(cfg.seed, op, serviceTenants)
	spec.Blocks = cfg.sz.serviceBlocks
	return spec
}

// opTimes are the client-side timestamps of one request.
type opTimes struct {
	op                          int
	start, ack, first, terminal time.Time
	frames                      int
	bytes                       int64
	rejected                    int
	err                         error
	last                        *wire.JobFrame // terminal frame, kept on checked ops
}

// client is one closed-loop caller with its own connection.
type client struct {
	http *http.Client
	base string
}

func newClient(base string) *client {
	tr := &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1}
	return &client{http: &http.Client{Transport: tr}, base: base}
}

func (c *client) close() { c.http.CloseIdleConnections() }

// drain reads a response body to its end so the connection is reused.
func drain(resp *http.Response) {
	io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<20))
	resp.Body.Close()
}

// do runs one op: submit (retrying while the daemon pushes back), then
// follow the stream to the terminal frame. Everything is bounded by
// requestTimeout; an op that overruns it fails instead of hanging.
func (c *client) do(spec jobserver.JobSpec, op int, keep bool) (t opTimes) {
	t.op = op
	ctx, cancel := context.WithTimeout(context.Background(), requestTimeout)
	defer cancel()
	body, err := json.Marshal(spec)
	if err != nil {
		t.err = err
		return t
	}
	t.start = time.Now()
	var id string
	for id == "" {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/v1/jobs", bytes.NewReader(body))
		if err != nil {
			t.err = err
			return t
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := c.http.Do(req)
		if err != nil {
			t.err = err
			return t
		}
		switch resp.StatusCode {
		case http.StatusOK:
			var out struct {
				ID string `json:"id"`
			}
			err = json.NewDecoder(resp.Body).Decode(&out)
			drain(resp)
			if err != nil || out.ID == "" {
				t.err = fmt.Errorf("submit %s: bad reply: %v", spec.Name, err)
				return t
			}
			id = out.ID
		case http.StatusTooManyRequests, http.StatusServiceUnavailable:
			drain(resp)
			t.rejected++
			select {
			case <-ctx.Done():
				t.err = fmt.Errorf("submit %s: still refused at the deadline", spec.Name)
				return t
			case <-time.After(5 * time.Millisecond):
			}
		default:
			drain(resp)
			t.err = fmt.Errorf("submit %s: HTTP %d", spec.Name, resp.StatusCode)
			return t
		}
	}
	t.ack = time.Now()

	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/v1/jobs/"+id+"/stream", nil)
	if err != nil {
		t.err = err
		return t
	}
	req.Header.Set("Accept", wire.ContentType)
	resp, err := c.http.Do(req)
	if err != nil {
		t.err = err
		return t
	}
	defer drain(resp)
	if resp.StatusCode != http.StatusOK {
		t.err = fmt.Errorf("stream %s: HTTP %d", id, resp.StatusCode)
		return t
	}
	br := bufio.NewReader(resp.Body)
	for {
		payload, err := wire.ReadFrame(br)
		if err != nil {
			if errors.Is(err, io.EOF) {
				err = fmt.Errorf("stream %s ended before a terminal frame", id)
			}
			t.err = err
			return t
		}
		now := time.Now()
		f, err := wire.DecodeJobFrame(payload)
		if err != nil {
			t.err = err
			return t
		}
		if t.frames == 0 {
			t.first = now
		}
		t.frames++
		t.bytes += int64(len(payload)) + 4 // + length prefix
		if status := jobserver.JobStatus(f.Status); status.Terminal() {
			t.terminal = now
			if status != jobserver.StatusDone {
				t.err = fmt.Errorf("job %s ended %s", id, status)
			}
			if keep {
				t.last = f
			}
			return t
		}
	}
}

// servicePass is one closed-loop measurement window.
type servicePass struct {
	measured
	ops []opTimes
}

// closedLoop runs cfg.procs clients until the deadline, or for exactly
// fixedOps ops when fixedOps > 0 (warm-up). firstOp is the index of the
// first op; rec, when set, records a span tree per request.
func closedLoop(cfg *runConfig, sd *serviceDaemon, seconds float64, fixedOps, firstOp int, rec *recorder) *servicePass {
	p := &servicePass{}
	var (
		next    atomic.Int64
		mu      sync.Mutex
		wg      sync.WaitGroup
		lastEnd time.Time
	)
	start := time.Now()
	deadline := start.Add(time.Duration(seconds * float64(time.Second)))
	for ci := 0; ci < cfg.procs; ci++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := newClient(sd.base)
			defer c.close()
			var mine []opTimes
			for {
				i := int(next.Add(1)) - 1
				if fixedOps > 0 && i >= fixedOps {
					break
				}
				if fixedOps <= 0 && !time.Now().Before(deadline) {
					break
				}
				op := firstOp + i
				t := c.do(loadSpec(cfg, op), op, i%serviceCheckEvery == 0)
				mine = append(mine, t)
			}
			mu.Lock()
			p.ops = append(p.ops, mine...)
			if n := len(mine); n > 0 && mine[n-1].terminal.After(lastEnd) {
				lastEnd = mine[n-1].terminal
			}
			mu.Unlock()
		}()
	}
	wg.Wait()
	p.wall = time.Since(start).Seconds()
	if !lastEnd.IsZero() {
		p.wall = lastEnd.Sub(start).Seconds()
	}
	perOp := int64(cfg.sz.serviceBlocks) * 80 // LoadSpec's LinesPerBlock
	for _, t := range p.ops {
		if t.err != nil {
			continue
		}
		p.opMS = append(p.opMS, ms(t.terminal.Sub(t.start)))
		p.records += perOp
		if rec != nil {
			root := rec.newID()
			rec.interval(rec.newID(), root, "jobserver.submit", t.start, t.ack, int64(t.rejected))
			rec.interval(rec.newID(), root, "jobserver.first_frame_wait", t.ack, t.first, 1)
			rec.interval(rec.newID(), root, "jobserver.stream", t.first, t.terminal, int64(t.frames))
			rec.interval(root, 0, "jobserver.request", t.start, t.terminal, 1)
		}
	}
	return p
}

// serviceRounds is the untraced timed phase: timedRounds rounds, each
// on a daemon of its own, freshly booted and warmed outside the round,
// running the run's ops from op 0. The daemon keeps every job it ever
// ran, so an op costs more the more jobs came before it (README.md,
// "Steadiness"); a fresh daemon per round makes every round measure the
// same stretch of a daemon's life.
func serviceRounds(cfg *runConfig, seconds float64) (*servicePass, error) {
	total := &servicePass{}
	for rd := 0; rd < timedRounds; rd++ {
		sd, err := bootDaemon(cfg)
		if err != nil {
			return nil, err
		}
		if err := warmUp(cfg, sd, cfg.sz.serviceRoundWarmOps); err != nil {
			sd.stop()
			return nil, err
		}
		runtime.GC() // the last round's daemon is garbage now
		total.beginRound()
		p := closedLoop(cfg, sd, seconds/timedRounds, 0, 0, nil)
		total.ops = append(total.ops, p.ops...)
		total.opMS = append(total.opMS, p.opMS...)
		total.wall += p.wall
		total.records += p.records
		total.endRound()
		sd.stop()
	}
	return total, nil
}

// warmUp runs n ops outside the run's own op numbers.
func warmUp(cfg *runConfig, sd *serviceDaemon, n int) error {
	for _, t := range closedLoop(cfg, sd, 0, n, warmOpBase, nil).ops {
		if t.err != nil {
			return fmt.Errorf("service-journaled warm-up: %w", t.err)
		}
	}
	return nil
}

// directOutputs runs spec without a daemon: Build + mapreduce.Run on a
// fresh default cluster, rendered the way the daemon renders estimates.
func directOutputs(spec jobserver.JobSpec) ([]jobserver.WireEstimate, error) {
	job, err := spec.Build(0)
	if err != nil {
		return nil, err
	}
	res, err := mapreduce.Run(cluster.New(cluster.DefaultConfig()), job)
	if err != nil {
		return nil, err
	}
	return jobserver.WireEstimates(res.Outputs), nil
}

// judge counts failed ops and compares the kept terminal frames with
// direct runs of their specs.
func (p *servicePass) judge(cfg *runConfig, r *result) {
	for _, t := range p.ops {
		if t.err != nil {
			r.fail(1, "service-journaled: op %d: %v", t.op, t.err)
			continue
		}
		if t.last == nil {
			continue
		}
		want, err := directOutputs(loadSpec(cfg, t.op))
		if err != nil {
			r.fail(1, "service-journaled: direct run of op %d: %v", t.op, err)
			continue
		}
		if got := jobserver.FrameFromWire(t.last).Estimates; !sameEstimates(got, want) {
			r.fail(1, "service-journaled: op %d: terminal estimates differ from a direct run of its spec", t.op)
		}
	}
}

// sameEstimates compares served estimates with a direct run's. Keys and
// flags must match exactly; the numbers to 1e-9 relative, because a job
// that shares its shard's engine with another consumes its map outputs
// in a different order than a job running alone, and the per-key
// floating-point sums differ in their last bits (see README.md).
func sameEstimates(got, want []jobserver.WireEstimate) bool {
	if len(got) != len(want) {
		return false
	}
	close := func(a, b float64) bool {
		return a == b || math.Abs(a-b) <= 1e-9*math.Max(math.Abs(a), math.Abs(b))
	}
	for i, w := range want {
		g := got[i]
		if g.Key != w.Key || g.Exact != w.Exact || g.Unbounded != w.Unbounded || g.Confidence != w.Confidence ||
			!close(g.Value, w.Value) || !close(g.Epsilon, w.Epsilon) || !close(g.Lo, w.Lo) || !close(g.Hi, w.Hi) {
			return false
		}
	}
	return true
}

// latencies returns the per-op phase latencies in ms (successful ops).
func (p *servicePass) latencies() (submit, firstWait, streaming []float64) {
	for _, t := range p.ops {
		if t.err != nil {
			continue
		}
		submit = append(submit, ms(t.ack.Sub(t.start)))
		firstWait = append(firstWait, ms(t.first.Sub(t.ack)))
		streaming = append(streaming, ms(t.terminal.Sub(t.first)))
	}
	return submit, firstWait, streaming
}

func serviceSetup(cfg *runConfig) (*serviceDaemon, error) {
	sd, err := bootDaemon(cfg)
	if err != nil {
		return nil, err
	}
	if err := warmUp(cfg, sd, cfg.sz.serviceWarmOps); err != nil {
		sd.stop()
		return nil, err
	}
	runtime.GC()
	return sd, nil
}

func runServiceJournaled(cfg *runConfig) (*result, error) {
	r := newResult("service-journaled", cfg)
	sd, setupSecs, err := timedSetup(cfg, func() (*serviceDaemon, error) { return serviceSetup(cfg) }, (*serviceDaemon).stop)
	if err != nil {
		return nil, err
	}
	if !cfg.trace {
		// The set-up's daemon warmed the process; each round boots its own.
		sd.stop()
		p, err := serviceRounds(cfg, cfg.seconds)
		if err != nil {
			return nil, err
		}
		r.Attempted = len(p.ops)
		p.judge(cfg, r)
		p.endToEndMetrics(r)
		r.Metrics["setup_s"] = setupSecs
		r.finish()
		return r, nil
	}

	// The service is traced from the client side, so the traced pass
	// runs the shipped configuration; the untraced pass after it gives
	// the overhead of recording four spans per request.
	rec := newRecorder()
	traced := closedLoop(cfg, sd, cfg.seconds*0.5, 0, 0, rec)
	plain := closedLoop(cfg, sd, cfg.seconds*0.3, 0, len(traced.ops), nil)
	sd.stop()
	r.Attempted = len(traced.ops)
	r.Samples = len(traced.opMS)
	traced.judge(cfg, r)
	r.spans = rec.spans

	ops := float64(len(traced.opMS))
	submit, firstWait, streaming := traced.latencies()
	var frames, bytes, rejected float64
	for _, t := range traced.ops {
		frames += float64(t.frames)
		bytes += float64(t.bytes)
		rejected += float64(t.rejected)
	}
	m := r.Metrics
	m["jobserver.submit_ms_p50"] = percentile(submit, 0.50)
	m["jobserver.submit_ms_p95"] = percentile(submit, 0.95)
	m["jobserver.complete_ms_p95"] = percentile(traced.opMS, 0.95)
	m["jobserver.complete_ms_p99"] = percentile(traced.opMS, 0.99)
	m["jobserver.ack_to_first_frame_ms_p50"] = percentile(firstWait, 0.50)
	m["jobserver.first_to_terminal_ms_p50"] = percentile(streaming, 0.50)
	m["jobserver.frames_per_job"] = ratio(frames, ops)
	m["jobserver.stream_bytes_per_job"] = ratio(bytes, ops)
	m["jobserver.rejected_per_op"] = ratio(rejected, float64(len(traced.ops)))
	traceCostMetrics(m, traced.opMS, plain.opMS, rec.spans)
	runProbes(cfg, m)
	// The HTTP edge is what the loopback round trip adds to a submit
	// the daemon handles directly.
	m["jobserver.http_edge_us"] = 1e3*m["jobserver.submit_ms_p50"] - m["jobserver.submit_direct_us"]
	r.finish()
	return r, nil
}

package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"approxhadoop/internal/apps"
	"approxhadoop/internal/dfs"
	"approxhadoop/internal/stream"
	"approxhadoop/internal/workload"
)

// stream-diurnal: apps.WebBytesStream over the materialised web log,
// arrivals on a diurnal curve, 2 s tumbling windows under an error and
// latency SLO. One pipeline run drains the whole file; runs are seeded
// seed, seed+1, ... and an op is one window.

const (
	streamWindowSecs = 2.0
	streamSLOErr     = 0.10
	streamSLOLatency = 0.8
	// streamCoverFloor is the share of checked windows whose interval
	// must contain the exact sum (nominal 95%).
	streamCoverFloor = 0.80
	// streamCheckEvery: every n-th run's windows are checked against an
	// exact replay after the timed phase.
	streamCheckEvery = 8
)

type streamInput struct {
	file    *dfs.File
	gen     workload.WebLog
	rate    workload.RateFunc
	records int64
}

func streamSetup(cfg *runConfig) (*streamInput, error) {
	gen := webLog(cfg)
	file, err := materialise(gen.File("web.log"))
	if err != nil {
		return nil, err
	}
	in := &streamInput{
		file:    file,
		gen:     gen,
		rate:    workload.DiurnalRate(cfg.sz.streamRate, 0.5, 120),
		records: int64(gen.Blocks) * int64(gen.LinesPerBlock),
	}
	if _, err := in.run(cfg.seed, 0, nil, func(stream.WindowResult) {}); err != nil {
		return nil, fmt.Errorf("stream-diurnal warm-up: %w", err)
	}
	runtime.GC()
	return in, nil
}

// source replays the materialised file on the run's arrival curve.
func (in *streamInput) source(runSeed int64) *workload.LogStream {
	return workload.StreamFrom(in.file, workload.StreamOptions{Rate: in.rate, Seed: runSeed})
}

// tracedSource times a Source from outside: the wall inside Run minus
// the wall inside the pipeline's per-record callback is the source's
// own; the callback's is the pipeline's ingest path (routing, folds,
// window close, controller and the window callback).
type tracedSource struct {
	inner  stream.Source
	ingest bracketSum
	start  time.Time
	end    time.Time
}

func (s *tracedSource) Run(fn func(t float64, line []byte) error) error {
	s.start = time.Now()
	err := s.inner.Run(func(t float64, line []byte) error {
		s.ingest.begin()
		e := fn(t, line)
		s.ingest.end(1)
		return e
	})
	s.end = time.Now()
	return err
}

// streamRun is what one pipeline run produced.
type streamRun struct {
	gapsMS []float64 // wall between consecutive window callbacks
	wall   time.Duration
}

// run executes one pipeline run, handing every closed window to each.
// rec, when set, records the run's spans.
func (in *streamInput) run(runSeed int64, workers int, rec *recorder, each func(stream.WindowResult)) (*streamRun, error) {
	opts := apps.StreamOptions{
		Seed:    runSeed,
		Rate:    in.rate,
		Window:  stream.Window{Size: streamWindowSecs},
		SLO:     stream.SLO{TargetRelErr: streamSLOErr, MaxLatency: streamSLOLatency},
		Workers: workers,
	}
	p := apps.WebBytesStream(in.gen, opts)
	p.Source = in.source(runSeed)
	var ts *tracedSource
	if rec != nil {
		ts = &tracedSource{inner: p.Source}
		p.Source = ts
	}
	out := &streamRun{}
	t0 := time.Now()
	last := t0
	err := p.RunEach(func(w stream.WindowResult) error {
		now := time.Now()
		out.gapsMS = append(out.gapsMS, ms(now.Sub(last)))
		last = now
		each(w)
		return nil
	})
	t1 := time.Now()
	out.wall = t1.Sub(t0)
	if ts != nil {
		root, src := rec.newID(), rec.newID()
		ts.ingest.emit(rec, src, "stream.ingest")
		rec.interval(src, root, "workload.stream_source", ts.start, ts.end, ts.ingest.count)
		rec.interval(root, 0, "stream.run", t0, t1, int64(len(out.gapsMS)))
	}
	return out, err
}

// streamPass is one timed series of pipeline runs.
type streamPass struct {
	measured
	runs    int
	kept    map[int64][]stream.WindowResult // run seed -> windows, for the oracle
	folded  int64
	sampled int64
	routed  int64
	strata  int64
	shed    int64
	ciSum   float64
	windows int
	errs    []string
}

func newStreamPass() *streamPass {
	return &streamPass{kept: map[int64][]stream.WindowResult{}}
}

// pass runs pipeline runs seeded seed, seed+1, ... at the shipped
// configuration until they have taken the given time, in timedRounds
// rounds.
func (in *streamInput) pass(cfg *runConfig, seconds float64) *streamPass {
	p := newStreamPass()
	p.beginRound()
	i := 0
	for rd := 0; rd < timedRounds; rd++ {
		for ; p.wall < roundTarget(seconds, rd); i++ {
			p.run(in, cfg, i, 0, nil)
		}
		p.endRound()
	}
	return p
}

// run executes the i-th pipeline run (seeded seed+i) and adds it to the
// pass.
func (p *streamPass) run(in *streamInput, cfg *runConfig, i, workers int, rec *recorder) {
	runSeed := cfg.seed + int64(i)
	check := i%streamCheckEvery == 0
	run, err := in.run(runSeed, workers, rec, func(w stream.WindowResult) {
		p.windows++
		p.routed += w.Records
		p.folded += w.Folded
		p.sampled += w.Sampled
		p.strata += int64(w.Strata)
		p.shed += int64(w.Strata - w.Processed)
		if !w.Exact {
			p.ciSum += w.Est.RelErr()
		}
		if check {
			p.kept[runSeed] = append(p.kept[runSeed], w)
		}
	})
	p.runs++
	p.wall += run.wall.Seconds()
	p.opMS = append(p.opMS, run.gapsMS...)
	p.records += in.records
	if err != nil {
		p.errs = append(p.errs, err.Error())
	}
}

// exactWindows replays the run's arrivals and sums the byte field per
// window itself: the reference the window estimates are checked against.
func (in *streamInput) exactWindows(runSeed int64) (map[int64]float64, error) {
	sums := map[int64]float64{}
	err := in.source(runSeed).Run(func(t float64, line []byte) error {
		if v, ok := parseBytes(line); ok {
			sums[int64(math.Floor(t/streamWindowSecs))] += v
		}
		return nil
	})
	return sums, err
}

// judge checks the kept runs' windows against exact replays and returns
// the share that cover the exact sum and the mean realised error.
func (in *streamInput) judge(r *result, p *streamPass) (coverage, relErrPct float64) {
	for _, e := range p.errs {
		r.fail(1, "stream-diurnal: %s", e)
	}
	var covered, checked int
	var relErr float64
	for runSeed, windows := range p.kept {
		exact, err := in.exactWindows(runSeed)
		if err != nil {
			r.fail(len(windows), "stream-diurnal: exact replay: %v", err)
			continue
		}
		for _, w := range windows {
			checked++
			truth := exact[w.Index]
			if math.IsNaN(w.Est.Value) || math.IsNaN(w.Est.Err) {
				continue
			}
			// An exact window's interval is a point: allow float
			// summation order to differ from the replay's.
			slack := 1e-9 * math.Abs(truth)
			relErr += ratio(math.Abs(w.Est.Value-truth), math.Abs(truth))
			if truth >= w.Est.Lo()-slack && truth <= w.Est.Hi()+slack {
				covered++
			}
		}
	}
	coverage = ratio(float64(covered), float64(checked))
	if checked == 0 || coverage < streamCoverFloor {
		r.fail(max(checked-covered, 1), "stream-diurnal: %d of %d checked windows cover the exact sum (%.3f), floor %.2f", covered, checked, coverage, streamCoverFloor)
	}
	if ci := 100 * ratio(p.ciSum, float64(p.windows)); ci > 2*100*streamSLOErr {
		r.fail(1, "stream-diurnal: mean window half-width %.3g%% is over twice the %.3g%% SLO", ci, 100*streamSLOErr)
	}
	return coverage, 100 * ratio(relErr, float64(checked))
}

func runStreamDiurnal(cfg *runConfig) (*result, error) {
	r := newResult("stream-diurnal", cfg)
	in, setupSecs, err := timedSetup(cfg, func() (*streamInput, error) { return streamSetup(cfg) }, func(*streamInput) {})
	if err != nil {
		return nil, err
	}
	if !cfg.trace {
		p := in.pass(cfg, cfg.seconds)
		r.Attempted = len(p.opMS)
		in.judge(r, p)
		p.endToEndMetrics(r)
		r.Metrics["setup_s"] = setupSecs
		r.finish()
		return r, nil
	}

	// Every run three times in a row (traced, untraced at Workers 1,
	// untraced at the default pool), as in the batch workloads.
	rec := newRecorder()
	traced, inline, pooled := newStreamPass(), newStreamPass(), newStreamPass()
	for i := 0; traced.wall+inline.wall+pooled.wall < cfg.seconds*0.8; i++ {
		traced.run(in, cfg, i, 1, rec)
		inline.run(in, cfg, i, 1, nil)
		pooled.run(in, cfg, i, 0, nil)
	}
	r.Attempted = len(traced.opMS)
	r.Samples = len(traced.opMS)
	coverage, relErrPct := in.judge(r, traced)
	r.spans = rec.spans

	runs := float64(traced.runs)
	tot := totalsByName(rec.spans)
	m := r.Metrics
	// The pipeline's own share of a run: everything but the source.
	selfNS := float64(tot["stream.run"].self + tot["stream.ingest"].busy)
	m["stream.pipeline_self_records_per_s"] = ratio(float64(traced.records), selfNS/1e9)
	m["stream.source_busy_ms_per_run"] = ratio(float64(tot["workload.stream_source"].self)/1e6, runs)
	m["stream.ingest_busy_ms_per_run"] = ratio(float64(tot["stream.ingest"].busy)/1e6, runs)
	m["stream.folded_per_record"] = ratio(float64(traced.folded), float64(traced.routed))
	m["stream.sampled_per_folded"] = ratio(float64(traced.sampled), float64(traced.folded))
	m["stream.shed_strata_ratio"] = ratio(float64(traced.shed), float64(traced.strata))
	m["stream.windows_per_run"] = ratio(float64(traced.windows), runs)
	m["stream.ci_coverage"] = coverage
	m["stream.window_wall_ms_p95"] = percentile(pooled.opMS, 0.95) // untraced, shipped Workers
	m["approx.ci_pct"] = 100 * ratio(traced.ciSum, float64(traced.windows))
	m["approx.rel_err_pct"] = relErrPct
	m["mapreduce.pool_speedup_x"] = ratio(median(inline.opMS), median(pooled.opMS))
	traceCostMetrics(m, traced.opMS, inline.opMS, rec.spans)
	runProbes(cfg, m)
	r.finish()
	return r, nil
}

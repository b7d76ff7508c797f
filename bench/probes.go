package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"approxhadoop"
	"approxhadoop/internal/approx"
	"approxhadoop/internal/apps"
	"approxhadoop/internal/cluster"
	"approxhadoop/internal/jobserver"
	"approxhadoop/internal/mapreduce"
	"approxhadoop/internal/ring"
	"approxhadoop/internal/sketch"
	"approxhadoop/internal/stats"
	"approxhadoop/internal/vtime"
	"approxhadoop/internal/wire"
	"approxhadoop/internal/workload"
)

// Layer probes: each layer's public functions timed directly, on small
// inputs made from the run's seed. A traced run of any workload runs
// all of them, so every per-layer row is present in every traced
// result. A probe never overwrites a metric the workload's own traced
// pass already measured.

// probeSink keeps the compiler from discarding a probe's calls.
var probeSink int

// probes carries what the probe groups share.
type probes struct {
	cfg *runConfig
	m   map[string]float64
	err []error
}

// n scales a full-size iteration count down for the tiny test sizes.
func (p *probes) n(full int) int {
	v := int(float64(full) * p.cfg.sz.probeScale)
	if v < 2 {
		v = 2
	}
	return v
}

// set records a probe's metric unless the workload already measured it.
func (p *probes) set(name string, v float64) {
	if _, ok := p.m[name]; !ok {
		p.m[name] = v
	}
}

func (p *probes) fail(what string, err error) {
	if err != nil {
		p.err = append(p.err, fmt.Errorf("%s: %w", what, err))
	}
}

// perUnit runs fn three times and returns the median seconds per unit,
// fn returning how many units it did.
func perUnit(fn func() float64) float64 {
	var xs []float64
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		units := fn()
		xs = append(xs, ratio(time.Since(t0).Seconds(), units))
	}
	return median(xs)
}

// runProbes fills every probe-backed per-layer metric into m. Probe
// errors are reported on stderr and leave their metrics at 0; they do
// not fail the workload's ops.
func runProbes(cfg *runConfig, m map[string]float64) {
	p := &probes{cfg: cfg, m: m}
	runtime.GC() // the workload's garbage is not the probes' to collect
	p.dataPlane()
	p.estimators()
	p.engine()
	p.sketches()
	p.service()
	p.frames()
	for _, err := range p.err {
		fmt.Fprintln(os.Stderr, "probe:", err)
	}
}

// dataPlane probes workload, dfs, the sampling reader and the emitter.
func (p *probes) dataPlane() {
	gen := workload.DefaultAccessLog()
	gen.Blocks, gen.Seed = p.n(60), p.cfg.seed*7919+5
	lazy := gen.File("probe.log")
	var lines int
	secs := perUnit(func() float64 {
		lines = 0
		p.fail("generate", eachLine(lazy, func([]byte) { lines++ }))
		return float64(lines)
	})
	p.set("workload.gen_lines_per_s", ratio(1, secs))

	file, err := materialise(lazy)
	if err != nil {
		p.fail("materialise", err)
		return
	}
	mb := float64(file.Size()) / 1e6
	p.set("dfs.lines_mb_per_s", ratio(1, perUnit(func() float64 {
		p.fail("lines", eachLine(file, func([]byte) {}))
		return mb
	})))
	p.set("dfs.open_read_mb_per_s", ratio(1, perUnit(func() float64 {
		for _, b := range file.Blocks {
			rc := b.Open()
			_, err := io.Copy(io.Discard, rc)
			rc.Close()
			p.fail("open+read", err)
		}
		return mb
	})))

	text := make([]string, 0, lines)
	p.fail("collect lines", eachLine(file, func(l []byte) { text = append(text, string(l)) }))
	p.set("workload.parse_access_ns", 1e9*perUnit(func() float64 {
		for _, l := range text {
			if _, ok := workload.ParseAccess(l); !ok {
				p.fail("parse", errors.New("unparseable access line"))
				break
			}
		}
		return float64(len(text))
	}))

	// The sampling reader alone: Open + Push into a sink that does
	// nothing, at ratio 1 (records handed over) and 0.1 (lines scanned).
	push := func(ratio float64) (openSecs float64) {
		for i, b := range file.Blocks {
			t0 := time.Now()
			rd, err := approx.ApproxTextInput{}.Open(b, ratio, int64(i))
			t1 := time.Now()
			if err != nil {
				p.fail("reader open", err)
				continue
			}
			if ok, err := rd.(mapreduce.RecordPusher).Push(func(mapreduce.Record) {}); !ok || err != nil {
				p.fail("reader push", fmt.Errorf("ok=%v: %v", ok, err))
			}
			rd.Close()
			openSecs += t1.Sub(t0).Seconds()
		}
		return openSecs
	}
	var opens []float64
	p.set("approx.reader_ratio1_records_per_s", ratio(1, perUnit(func() float64 { push(1); return float64(lines) })))
	p.set("approx.reader_ratio01_lines_per_s", ratio(1, perUnit(func() float64 {
		opens = append(opens, push(0.1)/float64(len(file.Blocks)))
		return float64(lines)
	})))
	p.set("approx.reader_open_us", 1e6*median(opens))

	// Emit alone: the real job shape with a mapper that ignores its
	// record and emits a precomputed key, so OpProc busy over calls is
	// mapper call + Emit (intern, combine).
	emit := func(keys []string) float64 {
		tr := &jobTrace{}
		job := apps.ProjectPopularity(file, apps.Options{Seed: p.cfg.seed, Cost: approxhadoop.PaperCost()})
		job.NewMapper = nil
		job.NewMapperFor = func(task int) mapreduce.Mapper {
			i := task * gen.LinesPerBlock
			return mapreduce.MapperFunc(func(_ mapreduce.Record, e mapreduce.Emitter) {
				e.Emit(keys[i%len(keys)], 1)
				i++
			})
		}
		job.Workers = 1
		job.Meter = newSpanMeter(tr)
		if _, err := mapreduce.Run(cluster.New(cluster.DefaultConfig()), job); err != nil {
			p.fail("emit job", err)
		}
		proc := tr.ops[vtime.OpProc]
		return ratio(float64(proc.busy), float64(proc.calls))
	}
	keySet := func(prefix string, n int) []string {
		keys := make([]string, n)
		for i := range keys {
			keys[i] = fmt.Sprintf("%s%d", prefix, i)
		}
		return keys
	}
	p.set("mapreduce.emit_fewkeys_ns", emit(keySet("proj", 400)))
	p.set("mapreduce.emit_manykeys_ns", emit(keySet("page", 20000)))

	web := workload.DefaultWebLog()
	web.Blocks, web.Seed = p.n(10), p.cfg.seed*7919+6
	webFile, err := materialise(web.File("probe-web.log"))
	if err != nil {
		p.fail("materialise web", err)
		return
	}
	src := workload.StreamFrom(webFile, workload.StreamOptions{Rate: workload.ConstantRate(4000), Seed: p.cfg.seed})
	p.set("workload.stream_source_records_per_s", ratio(1, perUnit(func() float64 {
		n := 0
		p.fail("stream source", src.Run(func(float64, []byte) error { n++; return nil }))
		return float64(n)
	})))
}

// estimators probes stats and the controller's error prediction.
func (p *probes) estimators() {
	var sink float64
	calls := p.n(200000)
	p.set("stats.two_sided_t_ns", 1e9*perUnit(func() float64 {
		for i := 0; i < calls; i++ {
			sink += stats.TwoSidedT(0.95, 80)
		}
		return float64(calls)
	}))
	quant := p.n(4000)
	p.set("stats.tquantile_ns", 1e9*perUnit(func() float64 {
		for i := 0; i < quant; i++ {
			sink += stats.TQuantile(0.975, float64(2+i%500))
		}
		return float64(quant)
	}))
	pc := approx.PlanComponent{Key: "k", Tau: 1e5, SU2: 250, WithinDone: 4e6, AvgWithin: 0.09}
	p.set("approx.predict_error_ns", 1e9*perUnit(func() float64 {
		for i := 0; i < calls; i++ {
			sink += approx.PredictError(pc, 740, 80, 1+i%600, 2000, float64(20+i%1980), 0.95)
		}
		return float64(calls)
	}))

	rng := rand.New(rand.NewSource(p.cfg.seed))
	ts := stats.TwoStage{N: 740}
	for i := 0; i < 100; i++ {
		var rs stats.RunningStat
		for j := 0; j < 200; j++ {
			rs.Add(float64(rng.Intn(2)))
		}
		ts.Clusters = append(ts.Clusters, stats.ClusterSample{M: 2000, Sam: 200, Stat: rs})
	}
	sums := p.n(2000)
	p.set("stats.twostage_sum_us", 1e6*perUnit(func() float64 {
		for i := 0; i < sums; i++ {
			sink += ts.Sum(0.95).Err
		}
		return float64(sums)
	}))
	maxima := make([]float64, 200)
	g := stats.GEV{Mu: 100, Sigma: 10, Xi: 0.1}
	for i := range maxima {
		maxima[i] = g.Quantile(0.001 + 0.998*rng.Float64())
	}
	fits := p.n(10)
	p.set("stats.gev_fit_ms", 1e3*perUnit(func() float64 {
		for i := 0; i < fits; i++ {
			if _, err := stats.FitGEVMaxima(maxima); err != nil {
				p.fail("gev fit", err)
				break
			}
		}
		return float64(fits)
	}))
	if math.IsNaN(sink) {
		p.fail("estimators", errors.New("NaN from an estimator probe"))
	}
}

// engine probes the discrete-event engine.
func (p *probes) engine() {
	events := p.n(200000)
	p.set("cluster.events_per_s", ratio(1, perUnit(func() float64 {
		eng := cluster.New(cluster.DefaultConfig())
		fired := 0
		for i := 0; i < events; i++ {
			eng.At(float64(i%977), func() { fired++ })
		}
		eng.Run()
		return float64(fired)
	})))
	rounds := p.n(1000)
	p.set("cluster.task_start_finish_ns", 1e9*perUnit(func() float64 {
		eng := cluster.New(cluster.DefaultConfig())
		tasks := 0
		for r := 0; r < rounds; r++ {
			for _, srv := range eng.Servers() {
				for srv.FreeSlots(cluster.MapSlot) > 0 {
					eng.StartTask(srv, cluster.MapSlot, 1, func(bool) { tasks++ })
				}
			}
			eng.Run()
		}
		return float64(tasks)
	}))
}

// sketches probes the sketch package directly and runs the two sketch
// queries in both shuffle representations on identical input.
func (p *probes) sketches() {
	gen := workload.DefaultAccessLog()
	gen.Blocks, gen.Seed = p.n(60), p.cfg.seed*7919+7
	file, err := materialise(gen.File("probe-sketch.log"))
	if err != nil {
		p.fail("materialise", err)
		return
	}
	var pages []string
	p.fail("collect pages", eachLine(file, func(l []byte) { pages = append(pages, string(tabField(l, accessPage))) }))

	// The default SketchPlan's parameters.
	const seed = 1
	build := map[string]func() (sketch.Sketch, error){
		"hll":   func() (sketch.Sketch, error) { return sketch.NewHLL(11, seed) },
		"cms":   func() (sketch.Sketch, error) { return sketch.NewCMS(256, 3, seed) },
		"topk":  func() (sketch.Sketch, error) { return sketch.NewTopK(10, 80, 256, 3, seed) },
		"bloom": func() (sketch.Sketch, error) { return sketch.NewBloom(4096, 4, seed) },
	}
	folded := map[string]sketch.Sketch{}
	for name, mk := range build {
		name, mk := name, mk
		p.set("sketch."+name+"_fold_ns", 1e9*perUnit(func() float64 {
			s, err := mk()
			if err != nil {
				p.fail(name, err)
				return 1
			}
			for _, e := range pages {
				s.Fold(e, 1)
			}
			folded[name] = s
			return float64(len(pages))
		}))
	}
	merges := p.n(200)
	for _, name := range []string{"topk", "hll"} {
		src := folded[name]
		if src == nil {
			continue
		}
		// Clones are made before the clock starts: only Merge is timed.
		var dsts [3][]sketch.Sketch
		for r := range dsts {
			for i := 0; i < merges; i++ {
				dsts[r] = append(dsts[r], src.Clone())
			}
		}
		rep := 0
		p.set("sketch."+name+"_merge_us", 1e6*perUnit(func() float64 {
			for _, d := range dsts[rep] {
				p.fail("merge", d.Merge(src))
			}
			rep++
			return float64(merges)
		}))
	}
	var encoded [][]byte
	var encBytes float64
	for _, s := range folded {
		b := s.AppendBinary(nil)
		encoded = append(encoded, b)
		encBytes += float64(len(b))
	}
	codecs := p.n(400)
	p.set("sketch.encode_mb_per_s", ratio(1, perUnit(func() float64 {
		var buf []byte
		for i := 0; i < codecs; i++ {
			for _, s := range folded {
				buf = s.AppendBinary(buf[:0])
			}
		}
		return float64(codecs) * encBytes / 1e6
	})))
	p.set("sketch.decode_mb_per_s", ratio(1, perUnit(func() float64 {
		for i := 0; i < codecs; i++ {
			for _, b := range encoded {
				if _, err := sketch.Decode(b); err != nil {
					p.fail("decode", err)
				}
			}
		}
		return float64(codecs) * encBytes / 1e6
	})))

	// Same query, both representations, time and accuracy side by side.
	sys := approxhadoop.NewSystem(approxhadoop.DefaultCluster())
	both := func(build func(sketched bool) *mapreduce.Job) (sk, pairs *mapreduce.Result, wallX float64) {
		run := func(sketched bool) (*mapreduce.Result, float64) {
			var res *mapreduce.Result
			secs := perUnit(func() float64 {
				r, err := sys.Run(build(sketched))
				p.fail("side-by-side job", err)
				res = r
				return 1
			})
			return res, secs
		}
		sk, skSecs := run(true)
		pairs, pairSecs := run(false)
		return sk, pairs, ratio(skSecs, pairSecs)
	}
	opts := apps.Options{Seed: p.cfg.seed, Cost: approxhadoop.PaperCost()}
	sk, pairs, wallX := both(func(sketched bool) *mapreduce.Job {
		return apps.WikiTopPages(file, apps.SketchOptions{Options: opts, Sketch: sketched})
	})
	if sk != nil && pairs != nil {
		p.set("sketch.topk_vs_pairs_wall_x", wallX)
		p.set("sketch.topk_shuffle_reduction_x", ratio(float64(pairs.Counters.ShuffleBytes), float64(sk.Counters.ShuffleBytes)))
		hits := 0
		for _, o := range sk.Outputs {
			if _, ok := pairs.Output(o.Key); ok {
				hits++
			}
		}
		p.set("sketch.topk_recall_at_10", ratio(float64(hits), float64(len(pairs.Outputs))))
	}
	edits := workload.DefaultEditLog()
	edits.Blocks, edits.Seed = p.n(40), p.cfg.seed*7919+8
	editFile, err := materialise(edits.File("probe-edits.log"))
	if err != nil {
		p.fail("materialise edits", err)
		return
	}
	sk, pairs, wallX = both(func(sketched bool) *mapreduce.Job {
		return apps.WikiDistinctEditors(editFile, apps.SketchOptions{Options: opts, Sketch: sketched})
	})
	if sk != nil && pairs != nil {
		p.set("sketch.distinct_vs_pairs_wall_x", wallX)
		var relErr float64
		for _, exact := range pairs.Outputs {
			if o, ok := sk.Output(exact.Key); ok && exact.Est.Value > 0 {
				relErr += math.Abs(o.Est.Value-exact.Est.Value) / exact.Est.Value
			} else {
				relErr++
			}
		}
		p.set("sketch.distinct_rel_err_pct", 100*ratio(relErr, float64(len(pairs.Outputs))))
	}
}

// service probes the daemon's layers without HTTP: spec decode and
// build, direct submits into a journaled daemon, the journal alone,
// recovery over that daemon's journal, and the same specs with no
// daemon at all (the compute floor under ops_per_s).
func (p *probes) service() {
	cfg := p.cfg
	jobs := p.n(60)
	specs := make([]jobserver.JobSpec, jobs)
	for i := range specs {
		specs[i] = loadSpec(cfg, warmOpBase*2+i)
	}
	body, err := json.Marshal(specs[0])
	p.fail("marshal spec", err)
	decodes := p.n(400)
	p.set("jobserver.spec_decode_build_us", 1e6*perUnit(func() float64 {
		for i := 0; i < decodes; i++ {
			var s jobserver.JobSpec
			if err := json.Unmarshal(body, &s); err != nil {
				p.fail("decode spec", err)
				break
			}
			if _, err := s.Build(0); err != nil {
				p.fail("build spec", err)
				break
			}
		}
		return float64(decodes)
	}))
	p.set("jobserver.direct_jobs_per_s", ratio(1, perUnit(func() float64 {
		for _, s := range specs {
			if _, err := directOutputs(s); err != nil {
				p.fail("direct job", err)
				break
			}
		}
		return float64(jobs)
	})))

	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		p.fail("out dir", err)
		return
	}
	dir, err := os.MkdirTemp(cfg.outDir, "probe-journal-")
	if err != nil {
		p.fail("temp dir", err)
		return
	}
	defer os.RemoveAll(dir)

	// The journal alone: append one submit record and fsync it.
	j, _, err := jobserver.OpenJournal(filepath.Join(dir, "append.wal"))
	if err != nil {
		p.fail("open journal", err)
		return
	}
	appends := p.n(300)
	p.set("jobserver.journal_append_commit_us", 1e6*perUnit(func() float64 {
		for i := 0; i < appends; i++ {
			rec := jobserver.JournalRecord{Op: jobserver.JournalSubmit, ID: fmt.Sprintf("job-%04d", i), Spec: &specs[i%jobs]}
			if err := j.Append(rec); err != nil {
				p.fail("journal append", err)
				break
			}
			if err := j.Commit(); err != nil {
				p.fail("journal commit", err)
				break
			}
		}
		return float64(appends)
	}))
	p.fail("close journal", j.Close())

	// Direct submits into a journaled one-shard daemon, no HTTP.
	wal := filepath.Join(dir, "daemon.wal")
	boot := func() (*jobserver.Service, jobserver.RecoveryStats, time.Duration, error) {
		svc := jobserver.New(jobserver.Config{SnapshotEvery: serviceSnapshotEvery})
		t0 := time.Now()
		jr, recs, err := jobserver.OpenJournal(wal)
		if err != nil {
			return nil, jobserver.RecoveryStats{}, 0, err
		}
		svc.UseJournal(jr)
		rs, err := svc.Recover(recs)
		return svc, rs, time.Since(t0), err
	}
	svc, _, _, err := boot()
	if err != nil {
		p.fail("boot daemon", err)
		return
	}
	d := jobserver.NewFleetDaemon([]*jobserver.Service{svc}, false)
	var submitUS []float64
	ids := make([]string, 0, jobs)
	deadline := time.Now().Add(requestTimeout)
	for _, s := range specs {
		for {
			t0 := time.Now()
			id, _, err := d.Submit(s)
			if errors.Is(err, jobserver.ErrBusy) && time.Now().Before(deadline) {
				time.Sleep(time.Millisecond) // closed loop: wait for the queue to drain
				continue
			}
			if err != nil {
				p.fail("direct submit", err)
				break
			}
			submitUS = append(submitUS, float64(time.Since(t0))/1e3)
			ids = append(ids, id)
			break
		}
	}
	for _, id := range ids {
		for {
			st, ok := d.Fleet().JobInfo(id)
			if !ok || st.Status.Terminal() || time.Now().After(deadline) {
				break
			}
			time.Sleep(time.Millisecond)
		}
	}
	places := p.n(200000)
	p.set("jobserver.placement_ns", 1e9*perUnit(func() float64 {
		for i := 0; i < places; i++ {
			probeSink += d.Fleet().PlacementShard(specs[i%jobs].Tenant)
		}
		return float64(places)
	}))
	d.Stop()
	p.set("jobserver.submit_direct_us", median(submitUS))
	if fi, err := os.Stat(wal); err == nil && len(ids) > 0 {
		p.set("jobserver.journal_bytes_per_job", float64(fi.Size())/float64(len(ids)))
	}

	// Recovery over the journal that daemon just wrote.
	svc, rs, took, err := boot()
	if err != nil {
		p.fail("recover", err)
		return
	}
	svc.Close()
	if rs.Terminal+rs.Requeued != len(ids) {
		p.fail("recover", fmt.Errorf("journal of %d jobs recovered %d terminal + %d requeued", len(ids), rs.Terminal, rs.Requeued))
	}
	p.set("jobserver.recover_ms", ms(took))

	r := ring.New(1, 0)
	for i := 0; i < 4; i++ {
		r.Add(fmt.Sprintf("shard-%d", i))
	}
	p.set("ring.lookup_ns", 1e9*perUnit(func() float64 {
		for i := 0; i < places; i++ {
			probeSink += len(r.Lookup(specs[i%jobs].Name))
		}
		return float64(places)
	}))
}

// frames probes the wire codec on a real terminal frame.
func (p *probes) frames() {
	ests, err := directOutputs(loadSpec(p.cfg, warmOpBase*3))
	if err != nil {
		p.fail("frame estimates", err)
		return
	}
	frame := &wire.JobFrame{Seq: 5, T: 12.5, Status: string(jobserver.StatusDone), Final: true}
	for _, e := range ests {
		frame.Estimates = append(frame.Estimates, wire.Estimate(e))
	}
	payload := wire.AppendJobFrame(nil, frame)
	n := p.n(5000)
	p.set("wire.encode_job_frame_ns", 1e9*perUnit(func() float64 {
		buf := make([]byte, 0, len(payload))
		for i := 0; i < n; i++ {
			buf = wire.AppendJobFrame(buf[:0], frame)
		}
		return float64(n)
	}))
	p.set("wire.decode_job_frame_ns", 1e9*perUnit(func() float64 {
		for i := 0; i < n; i++ {
			if _, err := wire.DecodeJobFrame(payload); err != nil {
				p.fail("decode frame", err)
				break
			}
		}
		return float64(n)
	}))
	p.set("wire.write_frame_ns", 1e9*perUnit(func() float64 {
		for i := 0; i < n; i++ {
			if err := wire.WriteFrame(io.Discard, payload); err != nil {
				p.fail("write frame", err)
				break
			}
		}
		return float64(n)
	}))
	p.set("wire.frame_bytes", float64(len(payload)+4))
	line, err := json.Marshal(jobserver.FrameFromWire(frame))
	p.fail("marshal frame", err)
	p.set("wire.binary_vs_json_bytes_x", ratio(float64(len(payload)+4), float64(len(line)+1)))
}

package main

import (
	"encoding/json"
	"math"
	"os"
	"regexp"
	"strings"
	"testing"

	"approxhadoop/internal/jobserver"
	"approxhadoop/internal/stream"
)

// The tests run every workload at tinySizes for a fraction of a second:
// they check the benchmark's own contract (declared names, span shape,
// an oracle that can fail), not any speed.

func tinyConfig(t *testing.T, trace bool) *runConfig {
	t.Helper()
	return &runConfig{seed: 1, seconds: 0.15, trace: trace, procs: procs(), outDir: t.TempDir(), sz: tinySizes}
}

// benchmarkFile is BENCHMARK.json as the builder's contract shapes it.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestBenchmarkJSONMatchesDeclarations(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(data, &raw); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"} {
		if _, ok := raw[k]; !ok {
			t.Errorf("BENCHMARK.json lacks key %q", k)
		}
		delete(raw, k)
	}
	for k := range raw {
		t.Errorf("BENCHMARK.json has a key the contract does not know: %q", k)
	}
	var f benchmarkFile
	if err := json.Unmarshal(data, &f); err != nil {
		t.Fatal(err)
	}
	if len(data) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, over 64 KiB", len(data))
	}
	if f.RunSeconds < 1 || f.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside [1, 60]", f.RunSeconds)
	}
	if n := len(f.Workloads); n < 2 || n > 8 || n != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d declared, want 2..8 and equal", n, len(workloads))
	}
	if n := len(f.EndToEnd); n < 1 || n > 16 || n != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d declared, want 1..16 and equal", n, len(endToEnd))
	}
	if n := len(f.PerLayer); n < 1 || n > 128 || n != len(perLayer) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d declared, want 1..128 and equal", n, len(perLayer))
	}
	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q does not match %v", n, nameRE)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}
	for i, w := range f.Workloads {
		name(w.Name)
		if w.Name != workloads[i].Name || w.Why != workloads[i].Why {
			t.Errorf("workload %d: BENCHMARK.json has %q, declared %q (or the why differs)", i, w.Name, workloads[i].Name)
		}
		if len(w.Why) > 200 || strings.ContainsAny(w.Why, "\n\r") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	setup := false
	for i, m := range f.EndToEnd {
		name(m.Name)
		d := endToEnd[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better || m.Bound != d.Bound {
			t.Errorf("end-to-end %d: BENCHMARK.json has %+v, declared %+v", i, m, d)
		}
		if !unitRE.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end %s: bad unit, direction or bound: %+v", m.Name, m)
		}
		if m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower" {
			setup = true
		}
	}
	if !setup {
		t.Error("no setup_s metric with unit s, better lower")
	}
	for i, m := range f.PerLayer {
		name(m.Name)
		d := perLayer[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("per-layer %d: BENCHMARK.json has %+v, declared %+v", i, m, d)
		}
		if !unitRE.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("per-layer %s: bad unit or direction: %+v", m.Name, m)
		}
		if d.Moves == "" {
			t.Errorf("per-layer %s: no prediction of what it should move", m.Name)
		}
	}
}

// runTiny runs one workload at tiny sizes and checks what every run
// must satisfy: no failed op, only declared metrics, and a contract
// line carrying exactly the declared metrics of its kind.
func runTiny(t *testing.T, w workloadDef, trace bool) *result {
	t.Helper()
	r, err := w.run(tinyConfig(t, trace))
	if err != nil {
		t.Fatalf("%s: %v", w.Name, err)
	}
	if r.Failed != 0 || !r.Correct || r.Attempted < 1 {
		t.Errorf("%s trace=%v: attempted %d failed %d: %v", w.Name, trace, r.Attempted, r.Failed, r.Notes)
	}
	declared := map[string]bool{}
	for _, d := range metricsFor(trace) {
		declared[d.Name] = true
	}
	for name := range r.Metrics {
		if !declared[name] {
			t.Errorf("%s trace=%v emitted undeclared metric %q", w.Name, trace, name)
		}
	}
	line, err := contractLine(r)
	if err != nil {
		t.Fatal(err)
	}
	var out struct {
		Correct   *bool `json:"correct"`
		Attempted *int  `json:"attempted"`
		Failed    *int  `json:"failed"`
		Metrics   map[string]struct {
			Value *float64 `json:"value"`
			Unit  string   `json:"unit"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal(line, &out); err != nil || out.Correct == nil || out.Attempted == nil || out.Failed == nil {
		t.Fatalf("%s: bad contract line %s: %v", w.Name, line, err)
	}
	if len(out.Metrics) != len(declared) {
		t.Errorf("%s trace=%v: contract line has %d metrics, %d declared", w.Name, trace, len(out.Metrics), len(declared))
	}
	for _, d := range metricsFor(trace) {
		m, ok := out.Metrics[d.Name]
		if !ok || m.Value == nil || m.Unit != d.Unit {
			t.Errorf("%s trace=%v: contract line lacks %s in %s", w.Name, trace, d.Name, d.Unit)
		}
	}
	return r
}

func TestEndToEndMetricsEmittedAndNeverZero(t *testing.T) {
	for _, w := range workloads {
		r := runTiny(t, w, false)
		for _, d := range endToEnd {
			if v, ok := r.Metrics[d.Name]; !ok || !(v > 0) {
				t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.Name, d.Name, v)
			}
		}
	}
}

// layersOf names, per workload, per-layer metrics its own traced pass
// (not a probe) must fill with a non-zero value. jobserver.http_edge_us
// is not among them: it is a difference of two medians and can read
// below zero at tiny sizes.
var layersOf = map[string][]string{
	"scan-precise":      {"approx.read_busy_ms_per_job", "mapreduce.map_busy_ms_per_job", "mapreduce.sched_self_ms_per_job", "mapreduce.shuffle_bytes_per_job"},
	"sample-drop":       {"approx.read_records_per_job", "approx.controller_calls_per_job", "approx.ci_pct", "mapreduce.maps_dropped_per_job"},
	"keys-target":       {"approx.controller_completed_ms_per_job", "approx.controller_calls_per_job", "mapreduce.reduce_pairs_per_job"},
	"sketch-topk":       {"mapreduce.map_busy_ms_per_job", "sketch.topk_recall_at_10"},
	"stream-diurnal":    {"stream.pipeline_self_records_per_s", "stream.ingest_busy_ms_per_run", "stream.windows_per_run", "stream.ci_coverage"},
	"service-journaled": {"jobserver.submit_ms_p50", "jobserver.frames_per_job", "jobserver.stream_bytes_per_job", "jobserver.submit_direct_us"},
}

func TestTracedRunsEmitLayersAndWellFormedSpans(t *testing.T) {
	for _, w := range workloads {
		r := runTiny(t, w, true)
		for _, name := range layersOf[w.Name] {
			if !(r.Metrics[name] > 0) {
				t.Errorf("%s: per-layer metric %s = %v, want > 0", w.Name, name, r.Metrics[name])
			}
		}
		// The probes fill their rows on every workload.
		for _, name := range []string{"workload.gen_lines_per_s", "dfs.lines_mb_per_s", "stats.tquantile_ns", "cluster.events_per_s",
			"sketch.topk_fold_ns", "jobserver.recover_ms", "ring.lookup_ns", "wire.frame_bytes", "bench.trace_overhead_x"} {
			if !(r.Metrics[name] > 0) {
				t.Errorf("%s: probe metric %s = %v, want > 0", w.Name, name, r.Metrics[name])
			}
		}
		checkSpans(t, w.Name, r.spans)
		if _, err := writeTrace(t.TempDir(), w.Name, r.spans); err != nil {
			t.Errorf("%s: %v", w.Name, err)
		}
	}
}

// checkSpans: every parent exists, children lie inside their parents,
// self times are never negative, and the self times under each root sum
// to the root's wall.
func checkSpans(t *testing.T, workload string, spans []span) {
	t.Helper()
	if len(spans) == 0 {
		t.Errorf("%s: traced run recorded no spans", workload)
		return
	}
	byID := map[int64]span{}
	for _, s := range spans {
		if _, dup := byID[s.ID]; dup || s.ID == 0 {
			t.Errorf("%s: span id %d reused or zero", workload, s.ID)
		}
		byID[s.ID] = s
	}
	rootOf := func(s span) int64 {
		for s.Parent != 0 {
			s = byID[s.Parent]
		}
		return s.ID
	}
	self := selfTimes(spans)
	sumUnder := map[int64]int64{}
	for _, s := range spans {
		if !nameRE.MatchString(s.Name) || !strings.Contains(s.Name, ".") {
			t.Errorf("%s: span name %q is not module.op", workload, s.Name)
		}
		if s.EndNS < s.StartNS || s.BusyNS < 0 || s.BusyNS > s.EndNS-s.StartNS {
			t.Errorf("%s: span %d %s has busy %d outside its interval [%d, %d]", workload, s.ID, s.Name, s.BusyNS, s.StartNS, s.EndNS)
		}
		if s.Parent != 0 {
			p, ok := byID[s.Parent]
			if !ok {
				t.Errorf("%s: span %d %s names a parent %d that does not exist", workload, s.ID, s.Name, s.Parent)
				continue
			}
			if s.StartNS < p.StartNS || s.EndNS > p.EndNS {
				t.Errorf("%s: span %d %s [%d, %d] lies outside its parent %s [%d, %d]", workload, s.ID, s.Name, s.StartNS, s.EndNS, p.Name, p.StartNS, p.EndNS)
			}
		}
		if self[s.ID] < 0 {
			t.Errorf("%s: span %d %s has negative self time %d", workload, s.ID, s.Name, self[s.ID])
		}
		sumUnder[rootOf(s)] += self[s.ID]
	}
	for id, total := range sumUnder {
		if root := byID[id]; total != root.BusyNS {
			t.Errorf("%s: self times under %s %d sum to %d ns, the span took %d", workload, root.Name, id, total, root.BusyNS)
		}
	}
}

func TestOracleFailsOnCorruptedResults(t *testing.T) {
	cfg := tinyConfig(t, false)

	// Batch: one precise value off by one, intervals moved off the
	// truth, a top-k of pages nobody asked for.
	for name, corrupt := range map[string]func(in *batchInput, s *batchSpec) opVerdict{
		"scan-precise": func(in *batchInput, s *batchSpec) opVerdict {
			res, err := in.sys.Run(s.job(in, cfg.seed, 0, nil))
			if err != nil {
				t.Fatal(err)
			}
			if v := s.check(in, res); v.err != "" {
				t.Fatalf("honest precise result rejected: %s", v.err)
			}
			res.Outputs[0].Est.Value++
			return s.check(in, res)
		},
		"sample-drop": func(in *batchInput, s *batchSpec) opVerdict {
			res, err := in.sys.Run(s.job(in, cfg.seed, 0, nil))
			if err != nil {
				t.Fatal(err)
			}
			for i := range res.Outputs {
				res.Outputs[i].Est.Value *= 3
			}
			return s.check(in, res)
		},
		"sketch-topk": func(in *batchInput, s *batchSpec) opVerdict {
			res, err := in.sys.Run(s.job(in, cfg.seed, 0, nil))
			if err != nil {
				t.Fatal(err)
			}
			for i := range res.Outputs {
				res.Outputs[i].Key = "no-such-page-" + res.Outputs[i].Key
			}
			return s.check(in, res)
		},
	} {
		s := batchSpecs[name]
		in, err := s.setup(cfg)
		if err != nil {
			t.Fatal(err)
		}
		r := newResult(name, cfg)
		r.Attempted = 1
		s.judge(r, []opVerdict{corrupt(in, s)})
		if r.finish(); r.Failed == 0 || r.Correct {
			t.Errorf("%s: the oracle accepted a corrupted result", name)
		}
	}

	// Stream: every window's estimate doubled.
	in, err := streamSetup(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p := in.pass(cfg, 0.05)
	honest := newResult("stream-diurnal", cfg)
	honest.Attempted = len(p.opMS)
	in.judge(honest, p)
	if honest.Failed != 0 {
		t.Fatalf("stream: honest windows rejected: %v", honest.Notes)
	}
	for seed, ws := range p.kept {
		doubled := append([]stream.WindowResult(nil), ws...)
		for i := range doubled {
			doubled[i].Est.Value *= 2
		}
		p.kept[seed] = doubled
	}
	bad := newResult("stream-diurnal", cfg)
	bad.Attempted = len(p.opMS)
	in.judge(bad, p)
	if bad.Failed == 0 {
		t.Error("stream: the oracle accepted doubled window estimates")
	}

	// Service: a terminal estimate that differs in its sixth digit.
	want, err := directOutputs(loadSpec(cfg, 0))
	if err != nil {
		t.Fatal(err)
	}
	got := append([]jobserver.WireEstimate(nil), want...)
	if !sameEstimates(got, want) {
		t.Fatal("service: identical estimates rejected")
	}
	got[0].Value *= 1 + 1e-6
	if sameEstimates(got, want) {
		t.Error("service: the oracle accepted a perturbed terminal estimate")
	}
}

// A stretch of the run that a neighbour slowed must not move the
// time-based metrics: they come from the best round, the whole-run
// figures beside them from every op.
func TestBestRoundIgnoresASlowedStretch(t *testing.T) {
	var m measured
	m.beginRound()
	for _, opMS := range []float64{20, 10, 30} {
		for i := 0; i < 5; i++ {
			m.opMS = append(m.opMS, opMS)
			m.wall += opMS / 1e3
			m.records += 100
		}
		m.endRound()
	}
	m.endRound() // a round without an op is not recorded
	r := newResult("scan-precise", tinyConfig(t, false))
	m.endToEndMetrics(r)
	if r.Rounds != 3 || r.Samples != 15 {
		t.Fatalf("rounds %d samples %d, want 3 and 15", r.Rounds, r.Samples)
	}
	near := func(name string, got, want float64) {
		if math.Abs(got-want) > 1e-9*want {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
	near("op_wall_ms_p50", r.Metrics["op_wall_ms_p50"], 10)
	near("ops_per_s", r.Metrics["ops_per_s"], 100)
	near("records_per_s", r.Metrics["records_per_s"], 10000)
	near("whole-run op_wall_ms_p50", r.WholeRun["op_wall_ms_p50"], 20)
	near("whole-run ops_per_s", r.WholeRun["ops_per_s"], 50)
}

func TestAATableAndCompare(t *testing.T) {
	mk := func(scale float64) *result {
		r := &result{Workload: "scan-precise", Attempted: 10, Correct: true, Metrics: map[string]float64{}}
		for _, d := range endToEnd {
			r.Metrics[d.Name] = 100
		}
		r.Metrics["op_wall_ms_p50"] = 100 * scale
		return r
	}
	var sb strings.Builder
	same := &resultSet{Results: []*result{mk(1)}, ResultsB: []*result{mk(1.02)}}
	if !aaTable(&sb, same) {
		t.Errorf("A/A with a 2%% gap on a 10%% bound failed:\n%s", sb.String())
	}
	apart := &resultSet{Results: []*result{mk(1)}, ResultsB: []*result{mk(1.5)}}
	if aaTable(&sb, apart) {
		t.Error("A/A with a 50% gap passed")
	}
	if compareTable(&sb, same, &resultSet{Results: []*result{mk(1.3)}}) {
		t.Error("compare accepted a 30% slower median on a 10% bound")
	}
	sb.Reset()
	// The noisy A/A set makes the same metric unresolved, not regressed.
	if !compareTable(&sb, apart, &resultSet{Results: []*result{mk(1.3)}}) || !strings.Contains(sb.String(), "unresolved") {
		t.Errorf("compare against a set whose A/A gap exceeds the bound should be unresolved:\n%s", sb.String())
	}
}

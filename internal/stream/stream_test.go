package stream_test

import (
	"io"
	"math"
	"runtime"
	"testing"

	"approxhadoop/internal/apps"
	"approxhadoop/internal/dfs"
	"approxhadoop/internal/stream"
	"approxhadoop/internal/workload"
)

// smallWeb is a web access log big enough for ~40k records.
func smallWeb() workload.WebLog {
	w := workload.DefaultWebLog()
	w.Blocks = 5
	w.LinesPerBlock = 8000
	return w
}

// smallEdits is a wiki edit log with ~24k records.
func smallEdits() workload.EditLog {
	e := workload.DefaultEditLog()
	e.Blocks = 12
	e.LinesPerBlock = 2000
	return e
}

// editRate is the catalog's edit-rate stream over gen's edit log.
func editRate(gen workload.EditLog, opts apps.StreamOptions) *stream.Pipeline {
	e, _ := apps.Lookup("edit-rate")
	return e.Stream(gen.File("stream-input"), opts)
}

func mustRun(t *testing.T, p *stream.Pipeline) []stream.WindowResult {
	t.Helper()
	series, err := p.Run()
	if err != nil {
		t.Fatalf("pipeline: %v", err)
	}
	if len(series) == 0 {
		t.Fatalf("pipeline emitted no windows")
	}
	return series
}

// TestTumblingWindows checks window accounting: contiguous indexes,
// Size-spaced bounds, and all routed records accounted for exactly
// once.
func TestTumblingWindows(t *testing.T) {
	opts := apps.StreamOptions{
		Seed:   3,
		Rate:   workload.ConstantRate(300),
		Window: stream.Window{Size: 10},
	}
	series := mustRun(t, editRate(smallEdits(), opts))
	var total int64
	for i, r := range series {
		if r.Index != int64(i) {
			t.Fatalf("window %d has index %d; series must be gap-free", i, r.Index)
		}
		if math.Abs(r.Start-float64(i)*10) > 1e-9 || math.Abs(r.End-r.Start-10) > 1e-9 {
			t.Fatalf("window %d bounds [%g,%g); want [%g,%g)", i, r.Start, r.End, float64(i)*10, float64(i)*10+10)
		}
		total += r.Records
	}
	e := smallEdits()
	want := int64(e.Blocks * e.LinesPerBlock)
	if total != want {
		t.Fatalf("windows account for %d records; stream carried %d", total, want)
	}
	if !series[len(series)-1].Partial {
		t.Errorf("last window of a drained source should be partial")
	}
}

// TestSlidingWindows: with Slide = Size/2 every record folds into two
// windows, so summed window records come to ~2x the stream (minus the
// first window's single-coverage head and the partial tail).
func TestSlidingWindows(t *testing.T) {
	opts := apps.StreamOptions{
		Seed:   5,
		Rate:   workload.ConstantRate(400),
		Window: stream.Window{Size: 10, Slide: 5},
	}
	series := mustRun(t, editRate(smallEdits(), opts))
	var total int64
	for i, r := range series {
		if r.Index != int64(i) {
			t.Fatalf("window %d has index %d", i, r.Index)
		}
		if math.Abs(r.Start-float64(i)*5) > 1e-9 {
			t.Fatalf("window %d starts at %g; want %g", i, r.Start, float64(i)*5)
		}
		total += r.Records
	}
	e := smallEdits()
	n := int64(e.Blocks * e.LinesPerBlock)
	if total < n+n/2 || total > 2*n {
		t.Fatalf("sliding windows hold %d record-folds for %d records; want ~2x", total, n)
	}
}

// TestUnconstrainedWindowsAreExact: without a controller and with
// reservoirs larger than any stratum, the estimator degrades to exact
// per-window ground truth with a zero-width interval.
func TestUnconstrainedWindowsAreExact(t *testing.T) {
	opts := apps.StreamOptions{
		Seed:       11,
		Rate:       workload.ConstantRate(500),
		Window:     stream.Window{Size: 5},
		Capacity:   1 << 20,
		MaxWindows: 8,
	}
	series := mustRun(t, apps.WebBytesStream(smallWeb(), opts))
	for _, r := range series {
		if !r.Exact {
			t.Fatalf("window %d not exact: %+v", r.Index, r)
		}
		if r.Est.Err != 0 {
			t.Fatalf("window %d exact but Err %g", r.Index, r.Est.Err)
		}
		if r.Sampled != r.Folded {
			t.Fatalf("window %d sampled %d of %d despite unbounded capacity", r.Index, r.Sampled, r.Folded)
		}
	}
}

// TestControllerHoldsErrorSLO: under a 3x diurnal rate swing the
// adaptive controller must keep the realized per-window error at or
// under the SLO target once it has one window of feedback, while
// actually sampling (not just enumerating everything).
func TestControllerHoldsErrorSLO(t *testing.T) {
	const target = 0.05
	opts := apps.StreamOptions{
		Seed:       9,
		Rate:       workload.DiurnalRate(500, 0.5, 120),
		Window:     stream.Window{Size: 6},
		SLO:        stream.SLO{TargetRelErr: target},
		Capacity:   48,
		MaxWindows: 13,
	}
	series := mustRun(t, apps.WebBytesStream(smallWeb(), opts))
	var sampledWindows, violations int
	for _, r := range series[1:] { // window 0 runs on the uninformed initial plan
		if r.Exact {
			continue
		}
		sampledWindows++
		if rel := r.Est.RelErr(); rel > target {
			violations++
			t.Logf("window %d: rel err %.4f > target (cap %d, records %d)", r.Index, rel, r.Plan.Capacity, r.Records)
		}
	}
	if sampledWindows < 6 {
		t.Fatalf("only %d sampled windows; the scenario should be approximating", sampledWindows)
	}
	// The target is a 95%-confidence half-width aimed with headroom;
	// allow one stray window.
	if violations > 1 {
		t.Errorf("%d of %d sampled windows violated the %.0f%% error SLO", violations, sampledWindows, target*100)
	}
}

// TestControllerShedsUnderLatencyBudget: a latency budget the full
// stream cannot fit forces KeepFrac below 1; degraded windows must
// say so, respect the keep floor, and come back under budget.
func TestControllerShedsUnderLatencyBudget(t *testing.T) {
	opts := apps.StreamOptions{
		Seed:       13,
		Rate:       workload.DiurnalRate(600, 0.5, 100),
		Window:     stream.Window{Size: 8},
		SLO:        stream.SLO{TargetRelErr: 0.25, MaxLatency: 0.05},
		MaxWindows: 12,
	}
	series := mustRun(t, apps.WebBytesStream(smallWeb(), opts))
	var degraded int
	for _, r := range series[1:] {
		if !r.Degraded {
			continue
		}
		degraded++
		if r.Plan.KeepFrac < 0.25-1e-9 || r.Plan.KeepFrac >= 1 {
			t.Fatalf("window %d keep frac %g outside [0.25, 1)", r.Index, r.Plan.KeepFrac)
		}
		if r.Processed >= r.Strata {
			t.Errorf("window %d marked degraded but kept all %d strata", r.Index, r.Strata)
		}
	}
	if degraded < 4 {
		t.Fatalf("only %d degraded windows under a budget of %gs; shedding never engaged", degraded, opts.SLO.MaxLatency)
	}
	// After the first feedback round the modeled latency should track
	// the budget (the forecast can overshoot briefly on the swing).
	for _, r := range series[2:] {
		if r.Partial {
			continue
		}
		if r.Latency > opts.SLO.MaxLatency*1.6 {
			t.Errorf("window %d modeled latency %gs far above budget %gs (keep %g)", r.Index, r.Latency, opts.SLO.MaxLatency, r.Plan.KeepFrac)
		}
	}
}

// TestMaxWindowsStopsEarly: the window budget must stop the source
// without error and without a partial tail.
func TestMaxWindowsStopsEarly(t *testing.T) {
	opts := apps.StreamOptions{
		Seed:       2,
		Rate:       workload.ConstantRate(400),
		Window:     stream.Window{Size: 5},
		MaxWindows: 4,
	}
	series := mustRun(t, editRate(smallEdits(), opts))
	if len(series) != 4 {
		t.Fatalf("got %d windows; want 4", len(series))
	}
	for _, r := range series {
		if r.Partial {
			t.Errorf("window %d partial; budget-stopped windows are watermark-closed", r.Index)
		}
	}
}

// TestQueryValidation: broken specs must fail up front.
func TestQueryValidation(t *testing.T) {
	src := workload.StreamFrom(smallEdits().File("x"), workload.StreamOptions{Rate: workload.ConstantRate(10)})
	cases := []stream.Query{
		{}, // no window
		{Window: stream.Window{Size: 10, Slide: 20}, Stratify: func([]byte) []byte { return nil }}, // gapping slide
		{Window: stream.Window{Size: 10}}, // no stratify
		{Window: stream.Window{Size: 10}, Stratify: func([]byte) []byte { return nil }, Op: stream.OpSum}, // sum without Value
	}
	for i, q := range cases {
		p := &stream.Pipeline{Query: q, Source: src, MaxWindows: 1}
		if _, err := p.Run(); err == nil {
			t.Errorf("case %d: invalid query accepted", i)
		}
	}
	if _, err := (&stream.Pipeline{Query: cases[0]}).Run(); err == nil {
		t.Errorf("missing source accepted")
	}
}

// BenchmarkStreamIngest is what a record costs the plane: the web-bytes
// query under an error and latency SLO over an in-memory log of 64 000
// lines, and beside it the source alone (line scan, arrival draw, rate
// curve), which the pipeline's figure includes. "saturated" runs two
// pipelines per P at once, so no core is spare for a stream's second
// stage: its ns/record is the plane's throughput when streams outnumber
// cores, not one stream's latency.
func BenchmarkStreamIngest(b *testing.B) {
	gen := smallWeb()
	gen.Blocks = 8
	file := gen.File("bench-web")
	var records int
	for i, blk := range file.Blocks {
		rc := blk.Open()
		data, err := io.ReadAll(rc)
		rc.Close()
		if err != nil {
			b.Fatal(err)
		}
		file.Blocks[i] = dfs.NewByteBlock(file.Name, i, data, blk.Items)
		records += int(blk.Items)
	}
	opts := apps.StreamOptions{
		Seed:   3,
		Rate:   workload.DiurnalRate(4000, 0.5, 120),
		Window: stream.Window{Size: 2},
		SLO:    stream.SLO{TargetRelErr: 0.10, MaxLatency: 0.8},
	}
	source := func() stream.Source {
		return workload.StreamFrom(file, workload.StreamOptions{Rate: opts.Rate, Seed: opts.Seed})
	}
	perRecord := func(b *testing.B, streams int, run func() error) {
		b.ReportAllocs()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := run(); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		runtime.ReadMemStats(&after)
		n := float64(b.N) * float64(streams*records)
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/n, "ns/record")
		b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/n, "B/record")
	}
	run := func() error {
		p := apps.WebBytesStream(gen, opts)
		p.Source = source()
		return p.RunEach(func(stream.WindowResult) error { return nil })
	}
	b.Run("pipeline", func(b *testing.B) {
		perRecord(b, 1, run)
	})
	b.Run("saturated", func(b *testing.B) {
		n := 2 * runtime.GOMAXPROCS(0)
		perRecord(b, n, func() error {
			errs := make(chan error, n)
			for range n {
				go func() { errs <- run() }()
			}
			var err error
			for range n {
				if e := <-errs; e != nil {
					err = e
				}
			}
			return err
		})
	})
	b.Run("source", func(b *testing.B) {
		perRecord(b, 1, func() error {
			return source().Run(func(float64, []byte) error { return nil })
		})
	})
}

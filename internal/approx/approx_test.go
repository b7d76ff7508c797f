package approx

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"reflect"
	"slices"
	"testing"

	"approxhadoop/internal/cluster"
	"approxhadoop/internal/dfs"
	"approxhadoop/internal/mapreduce"
	"approxhadoop/internal/stats"
)

// countInput builds a generated file where each block holds `lines`
// lines, each line a small integer; the precise per-key totals are
// computable in closed form by running the generator directly.
func countInput(blocks, lines int, seed int64) (*dfs.File, map[string]float64) {
	gen := func(idx int, r dfs.RandSource, w io.Writer) error {
		for i := 0; i < lines; i++ {
			k := r.Int63() % 5
			v := r.Int63()%9 + 1
			if _, err := fmt.Fprintf(w, "k%d %d\n", k, v); err != nil {
				return err
			}
		}
		return nil
	}
	f := dfs.GeneratedFile("counts", blocks, seed, 0, int64(lines), gen)
	// Compute ground truth by reading every block precisely.
	want := map[string]float64{}
	for _, b := range f.Blocks {
		rc := b.Open()
		s := bufio.NewScanner(rc)
		for s.Scan() {
			var k string
			var v float64
			fmt.Sscanf(s.Text(), "%s %f", &k, &v)
			want[k] += v
		}
		rc.Close()
	}
	return f, want
}

func sumMapper() mapreduce.Mapper {
	return mapreduce.MapperFunc(func(rec mapreduce.Record, emit mapreduce.Emitter) {
		var k string
		var v float64
		fmt.Sscanf(rec.Value, "%s %f", &k, &v)
		emit.Emit(k, v)
	})
}

func approxEngine() *cluster.Engine {
	cfg := cluster.DefaultConfig()
	cfg.Servers = 4
	cfg.MapSlotsPerServer = 4
	cfg.ReduceSlotsPerServer = 1
	return cluster.New(cfg)
}

func sumJob(input *dfs.File, ctl mapreduce.Controller) *mapreduce.Job {
	return &mapreduce.Job{
		Name:       "approx-sum",
		Input:      input,
		Format:     ApproxTextInput{},
		NewMapper:  sumMapper,
		NewReduce:  func(int) mapreduce.ReduceLogic { return NewMultiStageReducer(OpSum) },
		Reduces:    2,
		Combine:    true,
		Controller: ctl,
		Seed:       11,
		Cost:       cluster.AnalyticCost{T0: 1, Tr: 1e-4, Tp: 1e-3},
	}
}

// mapOut is mapreduce.NewMapOutput without a sketch plan, the only way
// it can fail.
func mapOut(task int, items, sampled int64, combine bool, emit func(mapreduce.Emitter)) *mapreduce.MapOutput {
	out, err := mapreduce.NewMapOutput(task, items, sampled, combine, nil, emit)
	if err != nil {
		panic(err)
	}
	return out
}

// emitValues is a mapper that emits each value under key, in order.
func emitValues(key string, values ...float64) func(mapreduce.Emitter) {
	return func(e mapreduce.Emitter) {
		for _, v := range values {
			e.Emit(key, v)
		}
	}
}

func TestSamplingReaderCounts(t *testing.T) {
	f, _ := countInput(1, 1000, 3)
	rr, err := ApproxTextInput{}.Open(f.Blocks[0], 0.2, 42)
	if err != nil {
		t.Fatal(err)
	}
	defer rr.Close()
	n := 0
	if ok, err := rr.Push(func(mapreduce.Record) { n++ }); !ok || err != nil {
		t.Fatalf("Push = %v, %v", ok, err)
	}
	m := rr.Measure()
	if m.Items != 1000 {
		t.Errorf("Items = %d, want 1000 (all lines scanned)", m.Items)
	}
	if int64(n) != m.Sampled {
		t.Errorf("returned %d records but Sampled = %d", n, m.Sampled)
	}
	if m.Sampled < 120 || m.Sampled > 280 {
		t.Errorf("20%% sample of 1000 gave %d (implausible)", m.Sampled)
	}
	if m.Bytes == 0 || m.ReadSecs < 0 {
		t.Errorf("measure incomplete: %+v", m)
	}
}

func TestSamplingReaderDeterministic(t *testing.T) {
	f, _ := countInput(1, 200, 3)
	read := func() []string {
		rr, _ := ApproxTextInput{}.Open(f.Blocks[0], 0.5, 7)
		defer rr.Close()
		var keys []string
		if ok, err := rr.Push(func(rec mapreduce.Record) { keys = append(keys, rec.Key()) }); !ok || err != nil {
			t.Fatalf("Push = %v, %v", ok, err)
		}
		return keys
	}
	a, b := read(), read()
	if len(a) != len(b) {
		t.Fatalf("non-deterministic sample: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("sample differs between reads with same seed")
		}
	}
	// The sample is line i iff the i-th draw of the seeded source falls
	// below the ratio: one draw per line, none before the first line.
	rng := stats.NewRand(7)
	var want []string
	for i := 0; i < 200; i++ {
		if rng.Float64() < 0.5 {
			want = append(want, fmt.Sprintf("%s:%d", f.Blocks[0].ID(), i))
		}
	}
	if !reflect.DeepEqual(a, want) {
		t.Errorf("sample is not the seeded source's draw sequence:\n got %v\nwant %v", a, want)
	}
}

func TestSamplingRatioOneIsExhaustive(t *testing.T) {
	f, _ := countInput(1, 100, 5)
	rr, _ := ApproxTextInput{}.Open(f.Blocks[0], 1.0, 7)
	defer rr.Close()
	var opened mapreduce.RecordReader
	if n := int(testing.AllocsPerRun(100, func() { opened, _ = ApproxTextInput{}.Open(f.Blocks[0], 1.0, 7) })); n != 1 || opened == nil {
		t.Errorf("opening at ratio 1 allocates %v times, want 1: the reader, and no source it would never draw from", n)
	}
	n := 0
	if ok, err := rr.Push(func(mapreduce.Record) { n++ }); !ok || err != nil {
		t.Fatalf("Push = %v, %v", ok, err)
	}
	if n != 100 {
		t.Errorf("ratio 1 returned %d of 100", n)
	}
}

func TestStaticSamplingBoundsContainTruth(t *testing.T) {
	input, want := countInput(20, 500, 9)
	res, err := mapreduce.Run(approxEngine(), sumJob(input, NewStatic(0.2, 0)))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Outputs) != len(want) {
		t.Fatalf("got %d keys, want %d", len(res.Outputs), len(want))
	}
	within := 0
	for _, o := range res.Outputs {
		truth := want[o.Key]
		if o.Exact {
			t.Errorf("sampled run should not be exact")
		}
		if o.Est.Err <= 0 || math.IsInf(o.Est.Err, 1) {
			t.Errorf("key %s: bad error bound %v", o.Key, o.Est.Err)
		}
		if o.Est.Lo() <= truth && truth <= o.Est.Hi() {
			within++
		}
		if rel := math.Abs(o.Est.Value-truth) / truth; rel > 0.25 {
			t.Errorf("key %s: estimate %v too far from %v", o.Key, o.Est.Value, truth)
		}
	}
	if within < len(want)-1 {
		t.Errorf("only %d/%d keys within 95%% CI", within, len(want))
	}
}

func TestStaticDroppingRunsFewerMaps(t *testing.T) {
	input, want := countInput(20, 300, 13)
	res, err := mapreduce.Run(approxEngine(), sumJob(input, NewStatic(1, 0.5)))
	if err != nil {
		t.Fatal(err)
	}
	if res.Counters.MapsCompleted != 10 || res.Counters.MapsDropped != 10 {
		t.Errorf("counters: %+v", res.Counters)
	}
	for _, o := range res.Outputs {
		truth := want[o.Key]
		if rel := math.Abs(o.Est.Value-truth) / truth; rel > 0.35 {
			t.Errorf("key %s: estimate %v vs %v", o.Key, o.Est.Value, truth)
		}
	}
}

func TestDroppingWidensBoundsVsSampling(t *testing.T) {
	// Same effective data fraction (50%), but dropped blocks randomize
	// less than in-block sampling when M >> N (Section 5.2). Use a
	// multi-wave job: dropping cannot shorten a single-wave job (the
	// paper's own observation in Section 5.4).
	input, _ := countInput(48, 400, 21)
	sampled, err := mapreduce.Run(approxEngine(), sumJob(input, NewStatic(0.5, 0)))
	if err != nil {
		t.Fatal(err)
	}
	dropped, err := mapreduce.Run(approxEngine(), sumJob(input, NewStatic(1, 0.5)))
	if err != nil {
		t.Fatal(err)
	}
	if dropped.MaxRelErr() <= sampled.MaxRelErr() {
		t.Errorf("dropping CI %.4f should exceed sampling CI %.4f",
			dropped.MaxRelErr(), sampled.MaxRelErr())
	}
	// And dropping should be faster: it skips whole-block reads.
	if dropped.Runtime >= sampled.Runtime {
		t.Errorf("dropping runtime %v should beat sampling runtime %v",
			dropped.Runtime, sampled.Runtime)
	}
}

func TestPreciseViaApproxStackIsExact(t *testing.T) {
	input, want := countInput(8, 200, 33)
	res, err := mapreduce.Run(approxEngine(), sumJob(input, nil))
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range res.Outputs {
		if !o.Exact || o.Est.Err != 0 {
			t.Errorf("key %s should be exact: %+v", o.Key, o.Est)
		}
		if !stats.AlmostEqual(o.Est.Value, want[o.Key], 1e-9) {
			t.Errorf("key %s = %v, want %v", o.Key, o.Est.Value, want[o.Key])
		}
	}
}

func TestTargetErrorMeetsBound(t *testing.T) {
	input, want := countInput(40, 400, 55)
	target := 0.02
	job := sumJob(input, &TargetError{Target: target})
	res, err := mapreduce.Run(approxEngine(), job)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.MaxRelErr(); got > target {
		t.Errorf("reported bound %.4f exceeds target %.4f", got, target)
	}
	for _, o := range res.Outputs {
		truth := want[o.Key]
		if math.Abs(o.Est.Value-truth)/truth > 3*target {
			t.Errorf("key %s way off: %v vs %v", o.Key, o.Est.Value, truth)
		}
	}
	if res.Counters.MapsCompleted >= res.Counters.MapsTotal {
		t.Errorf("a loose 2%% target should allow approximation: %+v", res.Counters)
	}
}

func TestTargetErrorTinyTargetRunsPrecise(t *testing.T) {
	input, want := countInput(12, 200, 77)
	job := sumJob(input, &TargetError{Target: 1e-9})
	res, err := mapreduce.Run(approxEngine(), job)
	if err != nil {
		t.Fatal(err)
	}
	if res.Counters.MapsCompleted != res.Counters.MapsTotal {
		t.Errorf("impossible target should run everything: %+v", res.Counters)
	}
	for _, o := range res.Outputs {
		if !stats.AlmostEqual(o.Est.Value, want[o.Key], 1e-9) {
			t.Errorf("key %s = %v, want %v", o.Key, o.Est.Value, want[o.Key])
		}
	}
}

// worstAbsRelErr returns the relative CI of the key with the largest
// predicted absolute error — the quantity the paper reports and the
// default controller constrains.
func worstAbsRelErr(res *mapreduce.Result) float64 {
	worst := -1.0
	rel := 0.0
	for _, o := range res.Outputs {
		if !math.IsInf(o.Est.Err, 1) && o.Est.Err > worst {
			worst = o.Est.Err
			rel = o.Est.RelErr()
		}
	}
	return rel
}

func TestTargetErrorPilot(t *testing.T) {
	input, _ := countInput(40, 400, 91)
	job := sumJob(input, &TargetError{Target: 0.05, Pilot: true, PilotRatio: 0.05, PilotTasks: 4})
	res, err := mapreduce.Run(approxEngine(), job)
	if err != nil {
		t.Fatal(err)
	}
	if got := worstAbsRelErr(res); got > 0.05 {
		t.Errorf("pilot run bound %.4f exceeds target", got)
	}
	if res.Counters.ItemsProcessed >= res.Counters.ItemsTotal {
		t.Error("pilot mode should sample")
	}
}

func TestTargetErrorStrictBoundsEveryKey(t *testing.T) {
	// Strict mode applies the relative target to every key; with the
	// near-uniform key weights of countInput this remains feasible.
	input, _ := countInput(40, 400, 55)
	job := sumJob(input, &TargetError{Target: 0.03, Strict: true})
	res, err := mapreduce.Run(approxEngine(), job)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.MaxRelErr(); got > 0.03 {
		t.Errorf("strict bound %.4f exceeds target on some key", got)
	}
}

func TestMultiStageMeanOp(t *testing.T) {
	r := NewMultiStageReducer(OpMean)
	view := mapreduce.EstimateView{TotalMaps: 2, Confidence: 0.95}
	for task := 0; task < 2; task++ {
		r.Consume(mapOut(task, 4, 4, false, emitValues("k", 2, 2, 4, 4)))
	}
	out := r.Finalize(view)
	if len(out) != 1 || !stats.AlmostEqual(out[0].Est.Value, 3, 1e-9) {
		t.Errorf("mean = %+v", out)
	}
	if !out[0].Exact {
		t.Error("full consumption should be exact")
	}
	if OpSum.String() != "sum" || OpCount.String() != "count" || OpMean.String() != "mean" {
		t.Error("AggOp strings")
	}
}

func TestPlanComponentsAndPrediction(t *testing.T) {
	r := NewMultiStageReducer(OpSum)
	view := mapreduce.EstimateView{TotalMaps: 10, Confidence: 0.95}
	for task := 0; task < 4; task++ {
		r.Consume(mapOut(task, 100, 50, true, func(e mapreduce.Emitter) {
			for i := 0; i < 50; i++ {
				e.Emit("k", float64(1+(task+i)%3))
			}
		}))
	}
	comps := r.appendPlanStats(nil, 0, view)
	if len(comps) != 1 {
		t.Fatalf("want 1 component, got %d", len(comps))
	}
	pc := PlanComponent{Key: "k", Tau: comps[0].tau, SU2: comps[0].su2,
		WithinDone: comps[0].withinDone, AvgWithin: comps[0].avgWithin}
	if pc.Tau <= 0 || pc.AvgWithin < 0 || pc.WithinDone < 0 {
		t.Errorf("bad components: %+v", pc)
	}
	// More clusters or larger within-samples must shrink the bound.
	base := PredictError(pc, 10, 4, 2, 100, 50, 0.95)
	moreClusters := PredictError(pc, 10, 4, 6, 100, 50, 0.95)
	moreSampling := PredictError(pc, 10, 4, 2, 100, 100, 0.95)
	if moreClusters >= base {
		t.Errorf("more clusters should shrink error: %v >= %v", moreClusters, base)
	}
	if moreSampling > base {
		t.Errorf("more in-cluster sampling should not widen error: %v > %v", moreSampling, base)
	}
	if got := PredictError(pc, 10, 1, 0, 100, 50, 0.95); !math.IsInf(got, 1) {
		t.Errorf("n < 2 should be infeasible, got %v", got)
	}
}

func TestGEVReducerExactWhenComplete(t *testing.T) {
	r := NewMinReducer()
	view := mapreduce.EstimateView{TotalMaps: 3, Confidence: 0.95}
	for task := 0; task < 3; task++ {
		r.Consume(mapOut(task, 1, 1, false, emitValues("min", float64(10-task))))
	}
	out := r.Finalize(view)
	if len(out) != 1 || !stats.AlmostEqual(out[0].Est.Value, 8, 1e-9) || !out[0].Exact {
		t.Errorf("exact min = %+v", out)
	}
}

func TestGEVReducerBoundsWithDrops(t *testing.T) {
	r := NewMinReducer()
	rng := stats.NewRand(5)
	n := 40
	view := mapreduce.EstimateView{TotalMaps: 100, Dropped: 60, Confidence: 0.95}
	obs := math.Inf(1)
	for task := 0; task < n; task++ {
		v := 100 + rng.NormFloat64()*5
		if v < obs {
			obs = v
		}
		r.Consume(mapOut(task, 1, 1, false, emitValues("min", v)))
	}
	out := r.Finalize(view)
	if len(out) != 1 {
		t.Fatal("missing output")
	}
	e := out[0]
	if e.Exact {
		t.Error("dropped run cannot be exact")
	}
	if !stats.AlmostEqual(e.Est.Value, obs, 1e-12) {
		t.Errorf("value should be the observed min: %v vs %v", e.Est.Value, obs)
	}
	if e.Est.Err <= 0 || math.IsInf(e.Est.Err, 1) {
		t.Errorf("expected finite positive GEV bound, got %v", e.Est.Err)
	}
	if got, ok := r.Observed("min"); !ok || !stats.AlmostEqual(got, obs, 1e-12) {
		t.Errorf("Observed = %v, %v", got, ok)
	}
	if _, ok := r.Observed("absent"); ok {
		t.Error("absent key should not be observed")
	}
}

func TestGEVReducerTooFewSamples(t *testing.T) {
	r := NewMinReducer()
	view := mapreduce.EstimateView{TotalMaps: 10, Dropped: 7, Confidence: 0.95}
	for task := 0; task < 3; task++ {
		r.Consume(mapOut(task, 1, 1, false, emitValues("min", float64(task))))
	}
	out := r.Finalize(view)
	if !math.IsInf(out[0].Est.Err, 1) {
		t.Errorf("tiny sample should give infinite bound, got %v", out[0].Est.Err)
	}
}

func TestGEVReducerCombinerMisuse(t *testing.T) {
	r := NewMinReducer()
	view := mapreduce.EstimateView{TotalMaps: 2, Confidence: 0.95}
	r.Consume(mapOut(0, 1, 1, true, emitValues("min", 5)))
	out := r.Finalize(view)
	if len(out) != 0 {
		// No raw values recorded; nothing to report.
		t.Errorf("combined-only consumption should yield no raw outputs: %+v", out)
	}
}

func TestTargetErrorGEVStopsEarly(t *testing.T) {
	// Maps output minima of a search; a loose bound stops the job early.
	blocks := 60
	gen := func(idx int, r dfs.RandSource, w io.Writer) error {
		_, err := fmt.Fprintf(w, "seed %d\n", r.Int63()%1000)
		return err
	}
	input := dfs.GeneratedFile("opt", blocks, 3, 0, 1, gen)
	mapper := func() mapreduce.Mapper {
		return mapreduce.MapperFunc(func(rec mapreduce.Record, emit mapreduce.Emitter) {
			var tag string
			var seed int64
			fmt.Sscanf(rec.Value, "%s %d", &tag, &seed)
			r := stats.NewRand(seed)
			best := math.Inf(1)
			for i := 0; i < 200; i++ {
				v := 100 + r.NormFloat64()*3
				if v < best {
					best = v
				}
			}
			emit.Emit("min", best)
		})
	}
	job := &mapreduce.Job{
		Name:       "opt",
		Input:      input,
		NewMapper:  mapper,
		NewReduce:  func(int) mapreduce.ReduceLogic { return NewMinReducer() },
		Reduces:    1,
		Controller: &TargetErrorGEV{Target: 0.10, MinMaps: 10},
		Seed:       2,
		Cost:       cluster.AnalyticCost{T0: 5, Tr: 1e-3, Tp: 1e-3},
	}
	res, err := mapreduce.Run(approxEngine(), job)
	if err != nil {
		t.Fatal(err)
	}
	if res.Counters.MapsCompleted >= blocks {
		t.Errorf("10%% GEV target should stop early: %+v", res.Counters)
	}
	if got := res.MaxRelErr(); got > 0.10 {
		t.Errorf("bound %.4f exceeds target", got)
	}
}

func TestPerTaskMappers(t *testing.T) {
	precise := func() mapreduce.Mapper {
		return mapreduce.MapperFunc(func(r mapreduce.Record, e mapreduce.Emitter) { e.Emit("p", 1) })
	}
	approxM := func() mapreduce.Mapper {
		return mapreduce.MapperFunc(func(r mapreduce.Record, e mapreduce.Emitter) { e.Emit("a", 1) })
	}
	factory := PerTaskMappers(0.5, 7, precise, approxM)
	counts := map[string]int{}
	for task := 0; task < 200; task++ {
		m := factory(task)
		m.Map(mapreduce.Record{}, emitterFunc(func(k string, v float64) { counts[k]++ }))
		// Deterministic per task:
		m2 := factory(task)
		var k2 string
		m2.Map(mapreduce.Record{}, emitterFunc(func(k string, v float64) { k2 = k }))
		_ = k2
	}
	if counts["a"] < 60 || counts["a"] > 140 {
		t.Errorf("approx fraction implausible: %+v", counts)
	}
	all := PerTaskMappers(1.5, 7, precise, approxM) // clamped to 1
	var k string
	all(3).Map(mapreduce.Record{}, emitterFunc(func(kk string, v float64) { k = kk }))
	if k != "a" {
		t.Error("ratio > 1 should clamp to always-approximate")
	}
	none := PerTaskMappers(-1, 7, precise, approxM)
	none(3).Map(mapreduce.Record{}, emitterFunc(func(kk string, v float64) { k = kk }))
	if k != "p" {
		t.Error("ratio < 0 should clamp to always-precise")
	}
}

type emitterFunc func(string, float64)

func (f emitterFunc) Emit(k string, v float64) { f(k, v) }

func TestStaticClamps(t *testing.T) {
	s := NewStatic(-0.5, 2)
	if !stats.AlmostEqual(s.SampleRatio, 1, 1e-12) || !stats.AlmostEqual(s.DropRatio, 1, 1e-12) {
		t.Errorf("clamps: %+v", s)
	}
	if s.Name() == "" {
		t.Error("name empty")
	}
	if (&TargetError{Target: 0.01}).Name() == "" {
		t.Error("target name empty")
	}
	if (&TargetErrorGEV{Target: 0.01}).Name() == "" {
		t.Error("gev name empty")
	}
}

func TestStaticDropEverything(t *testing.T) {
	input, _ := countInput(6, 50, 2)
	res, err := mapreduce.Run(approxEngine(), sumJob(input, NewStatic(1, 1)))
	if err != nil {
		t.Fatal(err)
	}
	if res.Counters.MapsCompleted != 0 || res.Counters.MapsDropped != 6 {
		t.Errorf("drop-all counters: %+v", res.Counters)
	}
}

// Observed returns the raw extreme seen so far for a key.
func (r *ExtremeValueReducer) Observed(key string) (float64, bool) {
	for id := range r.values {
		if r.index.Key(int32(id)) != key {
			continue
		}
		if r.Min {
			return slices.Min(r.values[id]), true
		}
		return slices.Max(r.values[id]), true
	}
	return 0, false
}

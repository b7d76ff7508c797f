package mapreduce

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"approxhadoop/internal/cluster"
	"approxhadoop/internal/dfs"
	"approxhadoop/internal/stats"
)

// wordCountInput builds a text file with known word counts.
func wordCountInput(t *testing.T, blockSize int) (*dfs.File, map[string]float64) {
	t.Helper()
	var sb strings.Builder
	want := map[string]float64{}
	words := []string{"ipsum", "lorem", "nisi", "sit", "ut", "laboris"}
	for i := 0; i < 200; i++ {
		var line []string
		for j := 0; j <= i%4; j++ {
			w := words[(i+j)%len(words)]
			line = append(line, w)
			want[w]++
		}
		sb.WriteString(strings.Join(line, " "))
		sb.WriteByte('\n')
	}
	return dfs.SplitText("words.txt", []byte(sb.String()), blockSize), want
}

func wordCountMapper() Mapper {
	return MapperFunc(func(rec Record, emit Emitter) {
		for _, w := range strings.Fields(rec.Value) {
			emit.Emit(w, 1)
		}
	})
}

// mapOutput is NewMapOutput for tests: a bad sketch plan fails the test.
func mapOutput(t testing.TB, taskID int, items, sampled int64, combine bool, plan *SketchPlan, emit func(Emitter)) *MapOutput {
	t.Helper()
	out, err := NewMapOutput(taskID, items, sampled, combine, plan, emit)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// emitValues is a mapper that emits each value under key, in order.
func emitValues(key string, values ...float64) func(Emitter) {
	return func(e Emitter) {
		for _, v := range values {
			e.Emit(key, v)
		}
	}
}

func testEngine() *cluster.Engine {
	cfg := cluster.DefaultConfig()
	cfg.Servers = 4
	cfg.MapSlotsPerServer = 2
	cfg.ReduceSlotsPerServer = 1
	return cluster.New(cfg)
}

func runWordCount(t *testing.T, job *Job) *Result {
	t.Helper()
	res, err := Run(testEngine(), job)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestPreciseWordCount(t *testing.T) {
	input, want := wordCountInput(t, 256)
	job := &Job{
		Name:      "wordcount",
		Input:     input,
		NewMapper: wordCountMapper,
		NewReduce: func(int) ReduceLogic { return SumReduce() },
		Reduces:   3,
	}
	res := runWordCount(t, job)
	if len(res.Outputs) != len(want) {
		t.Fatalf("got %d keys, want %d", len(res.Outputs), len(want))
	}
	for _, o := range res.Outputs {
		if !stats.AlmostEqual(o.Est.Value, want[o.Key], 1e-9) {
			t.Errorf("%s = %v, want %v", o.Key, o.Est.Value, want[o.Key])
		}
		if !o.Exact || o.Est.Err != 0 {
			t.Errorf("%s should be exact", o.Key)
		}
	}
	c := res.Counters
	if c.MapsCompleted != c.MapsTotal || c.MapsDropped != 0 || c.MapsKilled != 0 {
		t.Errorf("counters: %+v", c)
	}
	if c.ItemsTotal != 200 || c.ItemsProcessed != 200 {
		t.Errorf("items: %+v", c)
	}
	if res.Runtime <= 0 || res.EnergyWh <= 0 {
		t.Errorf("runtime %v energy %v should be positive", res.Runtime, res.EnergyWh)
	}
}

func TestWordCountWithCombiner(t *testing.T) {
	input, want := wordCountInput(t, 256)
	job := &Job{
		Name:      "wordcount-combine",
		Input:     input,
		NewMapper: wordCountMapper,
		NewReduce: func(int) ReduceLogic { return SumReduce() },
		Combine:   true,
	}
	res := runWordCount(t, job)
	for _, o := range res.Outputs {
		if !stats.AlmostEqual(o.Est.Value, want[o.Key], 1e-9) {
			t.Errorf("combined %s = %v, want %v", o.Key, o.Est.Value, want[o.Key])
		}
	}
}

func TestBarrierModeSameResult(t *testing.T) {
	input, want := wordCountInput(t, 256)
	job := &Job{
		Name:      "wordcount-barrier",
		Input:     input,
		NewMapper: wordCountMapper,
		NewReduce: func(int) ReduceLogic { return SumReduce() },
		Barrier:   true,
	}
	res := runWordCount(t, job)
	for _, o := range res.Outputs {
		if !stats.AlmostEqual(o.Est.Value, want[o.Key], 1e-9) {
			t.Errorf("barrier %s = %v, want %v", o.Key, o.Est.Value, want[o.Key])
		}
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	input, _ := wordCountInput(t, 128)
	mk := func() *Job {
		return &Job{
			Input:     input,
			NewMapper: wordCountMapper,
			NewReduce: func(int) ReduceLogic { return SumReduce() },
			Seed:      7,
			Cost:      cluster.AnalyticCost{T0: 1, Tr: 0.001, Tp: 0.01},
		}
	}
	a, err := Run(testEngine(), mk())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(testEngine(), mk())
	if err != nil {
		t.Fatal(err)
	}
	if !stats.AlmostEqual(a.Runtime, b.Runtime, 0) || len(a.Outputs) != len(b.Outputs) {
		t.Errorf("runs differ: %v vs %v", a.Runtime, b.Runtime)
	}
}

// dropController drops every task after the first `run` launches.
type dropController struct{ run int }

func (d *dropController) Name() string { return "drop-test" }
func (d *dropController) Plan(v *JobView) (float64, PlanAction) {
	if v.Launched < d.run {
		return 1, PlanRun
	}
	return 1, PlanDrop
}
func (d *dropController) Completed(v *JobView) Directive { return Directive{} }

func TestControllerDropsTasks(t *testing.T) {
	input, _ := wordCountInput(t, 64) // many small blocks
	n := len(input.Blocks)
	if n < 4 {
		t.Fatalf("need >= 4 blocks, got %d", n)
	}
	job := &Job{
		Input:      input,
		NewMapper:  wordCountMapper,
		NewReduce:  func(int) ReduceLogic { return SumReduce() },
		Controller: &dropController{run: 2},
	}
	res := runWordCount(t, job)
	if res.Counters.MapsCompleted != 2 {
		t.Errorf("completed %d, want 2", res.Counters.MapsCompleted)
	}
	if res.Counters.MapsDropped != n-2 {
		t.Errorf("dropped %d, want %d", res.Counters.MapsDropped, n-2)
	}
	// Approximate (dropped) execution via a plain reduce: bounds unknown.
	for _, o := range res.Outputs {
		if o.Exact || !math.IsNaN(o.Est.Err) {
			t.Errorf("output %s should carry unknown bounds", o.Key)
		}
	}
}

// killController kills all running maps after the first completion.
type killController struct{ fired bool }

func (k *killController) Name() string { return "kill-test" }
func (k *killController) Plan(v *JobView) (float64, PlanAction) {
	// Stop launching after the first wave.
	if v.Launched < v.TotalMapSlots {
		return 1, PlanRun
	}
	return 1, PlanDrop
}
func (k *killController) Completed(v *JobView) Directive {
	if !k.fired {
		k.fired = true
		return Directive{DropPending: true, KillRunning: true}
	}
	return Directive{}
}

func TestControllerKillsRunning(t *testing.T) {
	input, _ := wordCountInput(t, 64)
	job := &Job{
		Input:      input,
		NewMapper:  wordCountMapper,
		NewReduce:  func(int) ReduceLogic { return SumReduce() },
		Controller: &killController{},
		Cost:       cluster.AnalyticCost{T0: 10, Tr: 0.01, Tp: 0.01},
	}
	res := runWordCount(t, job)
	if res.Counters.MapsCompleted != 1 {
		t.Errorf("completed %d, want exactly 1 (rest killed)", res.Counters.MapsCompleted)
	}
	if res.Counters.MapsKilled == 0 {
		t.Error("expected kills")
	}
	total := res.Counters.MapsCompleted + res.Counters.MapsDropped + res.Counters.MapsKilled
	if total < res.Counters.MapsTotal {
		t.Errorf("all maps should be accounted: %+v", res.Counters)
	}
}

func TestSpeculationRecoversStragglers(t *testing.T) {
	input, _ := wordCountInput(t, 64)
	cfg := cluster.DefaultConfig()
	cfg.Servers = 2
	cfg.MapSlotsPerServer = 2
	cfg.StragglerProb = 0.3
	cfg.StragglerFactor = 50
	eng := cluster.New(cfg)
	job := &Job{
		Input:       input,
		NewMapper:   wordCountMapper,
		NewReduce:   func(int) ReduceLogic { return SumReduce() },
		Cost:        cluster.AnalyticCost{T0: 1, Tr: 0.001, Tp: 0.001},
		Speculation: true,
		Seed:        3,
	}
	res, err := Run(eng, job)
	if err != nil {
		t.Fatal(err)
	}
	if res.Counters.MapsSpeculated == 0 {
		t.Error("expected speculative attempts with heavy stragglers")
	}
	if res.Counters.MapsCompleted != res.Counters.MapsTotal {
		t.Errorf("all logical tasks should complete: %+v", res.Counters)
	}
}

func TestValidation(t *testing.T) {
	eng := testEngine()
	if _, err := Run(eng, &Job{}); err == nil {
		t.Error("empty job should fail")
	}
	input, _ := wordCountInput(t, 256)
	if _, err := Run(eng, &Job{Input: input}); err == nil {
		t.Error("missing mapper should fail")
	}
	if _, err := Run(eng, &Job{Input: input, NewMapper: wordCountMapper}); err == nil {
		t.Error("missing reducer should fail")
	}
	job := &Job{Input: input, NewMapper: wordCountMapper,
		NewReduce: func(int) ReduceLogic { return SumReduce() }, Reduces: 99}
	if _, err := Run(eng, job); err == nil {
		t.Error("too many reduces should fail")
	}
}

func TestFormatErrorPropagates(t *testing.T) {
	input, _ := wordCountInput(t, 256)
	job := &Job{
		Input:     input,
		Format:    failingFormat{},
		NewMapper: wordCountMapper,
		NewReduce: func(int) ReduceLogic { return SumReduce() },
	}
	if _, err := Run(testEngine(), job); err == nil {
		t.Error("reader failure should fail the job")
	}
}

type failingFormat struct{}

func (failingFormat) Open(*dfs.Block, float64, int64) (RecordReader, error) {
	return nil, fmt.Errorf("boom")
}

// decliningFormat opens readers whose Push declines.
type decliningFormat struct{}

func (decliningFormat) Open(*dfs.Block, float64, int64) (RecordReader, error) {
	return decliningReader{}, nil
}

type decliningReader struct{}

func (decliningReader) Push(func(Record)) (bool, error) { return false, nil }
func (decliningReader) Measure() ReaderMeasure          { return ReaderMeasure{} }
func (decliningReader) Close() error                    { return nil }

// TestReaderThatCannotPushFailsTheJob: there is one read mode, so a
// reader that declines it, or a block with nothing to push from, is an
// error — never an empty map output.
func TestReaderThatCannotPushFailsTheJob(t *testing.T) {
	input, _ := wordCountInput(t, 256)
	job := &Job{
		Input:     input,
		Format:    decliningFormat{},
		NewMapper: wordCountMapper,
		NewReduce: func(int) ReduceLogic { return SumReduce() },
	}
	if _, err := Run(testEngine(), job); err == nil || !strings.Contains(err.Error(), "declined") {
		t.Errorf("a reader that declines to push gave %v, want an error saying so", err)
	}
	job = &Job{
		Input:     &dfs.File{Name: "opaque", Blocks: []*dfs.Block{{FileName: "opaque"}}},
		NewMapper: wordCountMapper,
		NewReduce: func(int) ReduceLogic { return SumReduce() },
	}
	if _, err := Run(testEngine(), job); !errors.Is(err, dfs.ErrNoLineBacking) {
		t.Errorf("a block with no line backing gave %v, want dfs.ErrNoLineBacking", err)
	}
}

func TestPartitionStable(t *testing.T) {
	for _, key := range []string{"a", "b", "lorem", "zzz"} {
		p := Partition(key, 5)
		if p < 0 || p >= 5 {
			t.Errorf("partition out of range for %q: %d", key, p)
		}
		if Partition(key, 5) != p {
			t.Error("partition must be deterministic")
		}
	}
	seen := map[int]bool{}
	for i := 0; i < 100; i++ {
		seen[Partition(fmt.Sprint(i), 4)] = true
	}
	if len(seen) != 4 {
		t.Errorf("hash partitioner should use all partitions: %v", seen)
	}
}

func TestResultOutputLookup(t *testing.T) {
	input, want := wordCountInput(t, 256)
	job := &Job{
		Input:     input,
		NewMapper: wordCountMapper,
		NewReduce: func(int) ReduceLogic { return SumReduce() },
	}
	res := runWordCount(t, job)
	ke, ok := res.Output("lorem")
	if !ok || !stats.AlmostEqual(ke.Est.Value, want["lorem"], 1e-9) {
		t.Errorf("Output lookup failed: %+v ok=%v", ke, ok)
	}
	if _, ok := res.Output("absent-key"); ok {
		t.Error("absent key should not be found")
	}
	if res.MaxRelErr() != 0 {
		t.Errorf("precise MaxRelErr = %v", res.MaxRelErr())
	}
}

func TestLocalityPreferred(t *testing.T) {
	// With free slots everywhere, each map should land on a replica
	// holder. We verify through the scheduler's pickServer directly.
	eng := testEngine()
	nn := dfs.NewNameNode([]string{"server-00", "server-01", "server-02", "server-03"}, 2)
	input, _ := wordCountInput(t, 256)
	if err := nn.Register(input); err != nil {
		t.Fatal(err)
	}
	tr := &tracker{eng: eng, job: &Job{}, arb: newGreedyArbiter(eng)}
	for _, b := range input.Blocks {
		srv, _ := tr.pickServer(b)
		found := false
		for _, rep := range b.Replicas {
			if rep == srv.ID {
				found = true
			}
		}
		if !found {
			t.Errorf("block %d scheduled off-replica: %s not in %v", b.Index, srv.ID, b.Replicas)
		}
	}
}

func TestSleepIdleSavesEnergy(t *testing.T) {
	input, _ := wordCountInput(t, 2048) // single block: one map task
	mk := func(sleep bool) *Job {
		return &Job{
			Input:     input,
			NewMapper: wordCountMapper,
			NewReduce: func(int) ReduceLogic { return SumReduce() },
			Reduces:   1,
			Cost:      cluster.AnalyticCost{T0: 100, Tr: 0.01, Tp: 0.01},
			SleepIdle: sleep,
		}
	}
	awake, err := Run(testEngine(), mk(false))
	if err != nil {
		t.Fatal(err)
	}
	slept, err := Run(testEngine(), mk(true))
	if err != nil {
		t.Fatal(err)
	}
	if slept.EnergyWh >= awake.EnergyWh {
		t.Errorf("S3 should save energy: %v >= %v", slept.EnergyWh, awake.EnergyWh)
	}
	if math.Abs(slept.Runtime-awake.Runtime) > 1e-9 {
		t.Errorf("sleeping idle servers should not change runtime: %v vs %v", slept.Runtime, awake.Runtime)
	}
}

func TestWavesCounter(t *testing.T) {
	input, _ := wordCountInput(t, 64)
	job := &Job{
		Input:     input,
		NewMapper: wordCountMapper,
		NewReduce: func(int) ReduceLogic { return SumReduce() },
		Cost:      cluster.AnalyticCost{T0: 1, Tr: 0.001, Tp: 0.001},
	}
	res := runWordCount(t, job)
	wantWaves := (len(input.Blocks) + 7) / 8 // 4 servers x 2 slots
	if res.Counters.Waves != wantWaves {
		t.Errorf("waves = %d, want %d", res.Counters.Waves, wantWaves)
	}
}

func TestSequentialOrderAblation(t *testing.T) {
	input, _ := wordCountInput(t, 64)
	job := &Job{
		Input:           input,
		NewMapper:       wordCountMapper,
		NewReduce:       func(int) ReduceLogic { return SumReduce() },
		SequentialOrder: true,
	}
	res := runWordCount(t, job)
	if res.Counters.MapsCompleted != res.Counters.MapsTotal {
		t.Errorf("sequential order should still complete: %+v", res.Counters)
	}
}

func TestPreciseReduceHelpers(t *testing.T) {
	view := EstimateView{Confidence: 0.95}
	min := MinReduce()
	min.Consume(mapOutput(t, 0, 3, 3, false, nil, emitValues("k", 5, 2, 9)))
	out := min.Finalize(view)
	if len(out) != 1 || !stats.AlmostEqual(out[0].Est.Value, 2, 1e-12) {
		t.Errorf("MinReduce = %+v", out)
	}
	max := MaxReduce()
	max.Consume(mapOutput(t, 0, 2, 2, false, nil, emitValues("k", 5, 2)))
	if got := max.Finalize(view); !stats.AlmostEqual(got[0].Est.Value, 5, 1e-12) {
		t.Errorf("MaxReduce = %+v", got)
	}
	mean := MeanReduce()
	mean.Consume(mapOutput(t, 0, 2, 2, false, nil, emitValues("k", 4, 8)))
	if got := mean.Finalize(view); !stats.AlmostEqual(got[0].Est.Value, 6, 1e-12) {
		t.Errorf("MeanReduce = %+v", got)
	}
	if mean.Estimates(view) != nil {
		t.Error("precise reduce has no online estimates")
	}
}

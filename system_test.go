package approxhadoop_test

import (
	"io"
	"math"
	"strconv"
	"strings"
	"testing"

	approxhadoop "approxhadoop"
	"approxhadoop/internal/stats"
)

func testSystem() *approxhadoop.System {
	cfg := approxhadoop.DefaultCluster()
	cfg.Servers = 4
	cfg.MapSlotsPerServer = 4
	return approxhadoop.NewSystem(cfg)
}

func countFile() *approxhadoop.File {
	var sb strings.Builder
	for i := 0; i < 4000; i++ {
		sb.WriteString("k")
		sb.WriteByte(byte('0' + i%4))
		sb.WriteString(" 1\n")
	}
	return approxhadoop.SplitText("counts.txt", []byte(sb.String()), 2048)
}

func countJob(input *approxhadoop.File) *approxhadoop.Job {
	return &approxhadoop.Job{
		Name:  "count",
		Input: input,
		NewMapper: func() approxhadoop.Mapper {
			return approxhadoop.MapperFunc(func(rec approxhadoop.Record, emit approxhadoop.Emitter) {
				fields := strings.Fields(rec.Value)
				if len(fields) == 2 {
					emit.Emit(fields[0], 1)
				}
			})
		},
		NewReduce: approxhadoop.MultiStageSumReduce,
		Combine:   true,
		Seed:      3,
	}
}

func TestSystemStoreAndRun(t *testing.T) {
	sys := testSystem()
	input := countFile()
	if err := sys.Store(input); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.File("counts.txt"); err != nil {
		t.Fatal(err)
	}
	if files := sys.Files(); len(files) != 1 {
		t.Errorf("Files = %v", files)
	}
	if sys.Cluster().Servers != 4 {
		t.Errorf("cluster config lost")
	}
	res, err := sys.Run(countJob(input))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Outputs) != 4 {
		t.Fatalf("outputs = %d", len(res.Outputs))
	}
	for _, o := range res.Outputs {
		if !stats.AlmostEqual(o.Est.Value, 1000, 1e-9) || !o.Exact {
			t.Errorf("%s = %+v, want exactly 1000", o.Key, o.Est)
		}
	}
}

func TestSubmitRatios(t *testing.T) {
	sys := testSystem()
	input := countFile()
	res, err := sys.Submit(countJob(input), approxhadoop.Approximation{SampleRatio: 0.25, DropRatio: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	if res.Counters.MapsDropped == 0 {
		t.Error("expected drops")
	}
	if res.Counters.ItemsProcessed >= res.Counters.ItemsTotal {
		t.Error("expected sampling (Submit must install the sampling format)")
	}
	for _, o := range res.Outputs {
		if o.Est.Err <= 0 {
			t.Errorf("%s should carry a bound", o.Key)
		}
		if math.Abs(o.Est.Value-1000)/1000 > 0.5 {
			t.Errorf("%s = %v implausible", o.Key, o.Est.Value)
		}
	}
}

func TestSubmitTargetBound(t *testing.T) {
	sys := testSystem()
	res, err := sys.Submit(countJob(countFile()), approxhadoop.Approximation{TargetError: 0.05, Confidence: 0.99})
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range res.Outputs {
		if !stats.AlmostEqual(o.Est.Conf, 0.99, 1e-12) {
			t.Errorf("confidence should propagate: %v", o.Est.Conf)
		}
	}
	worst := 0.0
	for _, o := range res.Outputs {
		if re := o.Est.RelErr(); re > worst && !math.IsInf(re, 1) {
			worst = re
		}
	}
	if worst > 0.05 {
		t.Errorf("bound %.4f exceeds target", worst)
	}
}

func TestSubmitValidation(t *testing.T) {
	sys := testSystem()
	for _, spec := range []approxhadoop.Approximation{
		{SampleRatio: 0.5, TargetError: 0.01}, // mixed modes
		{SampleRatio: 0.5, Confidence: 1.5},   // the job used to relabel this 95%
	} {
		if _, err := sys.Submit(countJob(countFile()), spec); err == nil {
			t.Errorf("Submit(%+v) ran", spec)
		}
	}
	set, err := approxhadoop.Approximation{SampleRatio: 0.5}.Settings()
	if err != nil {
		t.Fatal(err)
	}
	job := countJob(countFile())
	job.Controller = set.Controller
	if _, err := sys.Submit(job, approxhadoop.Approximation{}); err == nil {
		t.Error("pre-set controller should be rejected")
	}
}

func TestSubmitExtreme(t *testing.T) {
	set, err := approxhadoop.Approximation{TargetError: 0.1, Extreme: true}.Settings()
	if err != nil {
		t.Fatal(err)
	}
	if name := set.Controller.Name(); !strings.HasPrefix(name, "target-error-gev") {
		t.Errorf("extreme spec should build a GEV controller, got %s", name)
	}
}

func TestRunPair(t *testing.T) {
	sys := testSystem()
	build := func() *approxhadoop.Job { return countJob(countFile()) }
	precise, apx, err := sys.RunPair(build, approxhadoop.Approximation{SampleRatio: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	if precise == apx {
		t.Fatal("distinct runs expected")
	}
	p, _ := precise.Output("k0")
	a, ok := apx.Output("k0")
	if !ok {
		t.Fatal("k0 missing")
	}
	if math.Abs(a.Est.Value-p.Est.Value)/p.Est.Value > 0.5 {
		t.Errorf("approx %v vs precise %v", a.Est.Value, p.Est.Value)
	}
	// Precise spec short-circuits.
	pr, ap, err := sys.RunPair(build, approxhadoop.Approximation{})
	if err != nil || pr != ap {
		t.Errorf("precise spec should return the same result twice: %v", err)
	}
}

func TestApproximationPrecise(t *testing.T) {
	cases := []struct {
		spec approxhadoop.Approximation
		want bool
	}{
		{approxhadoop.Approximation{}, true},
		{approxhadoop.Approximation{SampleRatio: 1}, true},
		{approxhadoop.Approximation{SampleRatio: 0.5}, false},
		{approxhadoop.Approximation{DropRatio: 0.1}, false},
		{approxhadoop.Approximation{TargetError: 0.01}, false},
		{approxhadoop.Approximation{AbsoluteError: 5}, false},
		{approxhadoop.Approximation{Deadline: 30}, false},
	}
	for _, c := range cases {
		set, err := c.spec.Settings()
		if err != nil {
			t.Fatal(err)
		}
		if got := set.Controller == nil; got != c.want {
			t.Errorf("precise(%+v) = %v, want %v", c.spec, got, c.want)
		}
	}
}

func TestStoreResult(t *testing.T) {
	sys := testSystem()
	res := &approxhadoop.Result{
		Job: "wordcount",
		Outputs: []approxhadoop.KeyEstimate{
			{Key: "alpha", Est: approxhadoop.Estimate{Value: 10, Err: 1, Conf: 0.95}},
			{Key: "beta", Est: approxhadoop.Estimate{Value: 20, Err: 2, Conf: 0.95}},
		},
	}
	f, err := sys.StoreResult(res, "")
	if err != nil {
		t.Fatal(err)
	}
	if f.Name != "wordcount.out" {
		t.Errorf("name = %q", f.Name)
	}
	got, err := sys.File("wordcount.out")
	if err != nil || got != f {
		t.Fatalf("lookup: %v", err)
	}
	rc := f.Blocks[0].Open()
	data, _ := io.ReadAll(rc)
	rc.Close()
	if !strings.Contains(string(data), "alpha\t10\t1\t0.95") {
		t.Errorf("content: %q", data)
	}
	// Replicas assigned for locality.
	if len(f.Blocks[0].Replicas) == 0 {
		t.Error("output blocks should be replicated")
	}
	// Empty results still materialize.
	ef, err := sys.StoreResult(&approxhadoop.Result{Job: "empty"}, "custom.out")
	if err != nil || len(ef.Blocks) != 1 {
		t.Fatalf("empty result: %v %v", ef, err)
	}
	// Duplicate name fails via the NameNode.
	if _, err := sys.StoreResult(res, "wordcount.out"); err == nil {
		t.Error("duplicate output name should fail")
	}
}

// TestEndToEndPipeline runs job -> result -> DFS output -> a second
// job reading that output: the full Figure 4 loop.
func TestEndToEndPipeline(t *testing.T) {
	sys := testSystem()
	input := countFile()
	res, err := sys.Run(countJob(input))
	if err != nil {
		t.Fatal(err)
	}
	out, err := sys.StoreResult(res, "stage1.out")
	if err != nil {
		t.Fatal(err)
	}
	// Second job: sum the stage-1 values (all 1000) across keys.
	second := &approxhadoop.Job{
		Name:  "stage2",
		Input: out,
		NewMapper: func() approxhadoop.Mapper {
			return approxhadoop.MapperFunc(func(rec approxhadoop.Record, emit approxhadoop.Emitter) {
				fields := strings.Split(rec.Value, "\t")
				if len(fields) >= 2 {
					if v, err := strconv.ParseFloat(fields[1], 64); err == nil {
						emit.Emit("grand-total", v)
					}
				}
			})
		},
		NewReduce: approxhadoop.SumReduce,
	}
	res2, err := sys.Run(second)
	if err != nil {
		t.Fatal(err)
	}
	total, ok := res2.Output("grand-total")
	if !ok || !stats.AlmostEqual(total.Est.Value, 4000, 1e-9) {
		t.Errorf("grand total = %+v ok=%v, want 4000", total, ok)
	}
}

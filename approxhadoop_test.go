package approxhadoop_test

import (
	"math"
	"strings"
	"testing"

	approxhadoop "approxhadoop"
	"approxhadoop/internal/stats"
)

func wordCountJob(sys *approxhadoop.System, input *approxhadoop.File) *approxhadoop.Job {
	return &approxhadoop.Job{
		Name:   "ApproxWordCount",
		Input:  input,
		Format: approxhadoop.ApproxTextInput{},
		NewMapper: func() approxhadoop.Mapper {
			return approxhadoop.MapperFunc(func(rec approxhadoop.Record, emit approxhadoop.Emitter) {
				for _, w := range strings.Fields(rec.Value) {
					emit.Emit(w, 1)
				}
			})
		},
		NewReduce: approxhadoop.MultiStageSumReduce,
		Combine:   true,
		Seed:      7,
	}
}

func corpus() []byte {
	var sb strings.Builder
	words := []string{"lorem", "ipsum", "nisi", "sit", "ut", "laboris"}
	for i := 0; i < 3000; i++ {
		sb.WriteString(words[i%len(words)])
		sb.WriteByte(' ')
		sb.WriteString(words[(i*7)%len(words)])
		sb.WriteByte('\n')
	}
	return []byte(sb.String())
}

func TestPublicAPIWordCount(t *testing.T) {
	sys := approxhadoop.NewSystem(approxhadoop.DefaultCluster())
	input := approxhadoop.SplitText("pages.txt", corpus(), 2048)
	if err := sys.Store(input); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.File("pages.txt"); err != nil {
		t.Fatal(err)
	}

	precise, err := sys.Run(wordCountJob(sys, input))
	if err != nil {
		t.Fatal(err)
	}
	lorem, ok := precise.Output("lorem")
	if !ok || !stats.AlmostEqual(lorem.Est.Value, 1000, 1e-9) {
		t.Fatalf("precise lorem = %+v ok=%v (want 1000)", lorem, ok)
	}

	apx, err := sys.Submit(wordCountJob(sys, input), approxhadoop.Approximation{SampleRatio: 0.25, DropRatio: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	al, ok := apx.Output("lorem")
	if !ok {
		t.Fatal("approx missing lorem")
	}
	if al.Est.Err <= 0 {
		t.Errorf("approximate run should carry a bound: %+v", al.Est)
	}
	if math.Abs(al.Est.Value-1000)/1000 > 0.4 {
		t.Errorf("approx lorem = %v too far from 1000", al.Est.Value)
	}
	if apx.Runtime <= 0 || apx.EnergyWh <= 0 {
		t.Error("runtime/energy should be positive")
	}
}

func TestPublicAPITargetError(t *testing.T) {
	sys := approxhadoop.NewSystem(approxhadoop.DefaultCluster())
	input := approxhadoop.SplitText("pages.txt", corpus(), 512)
	res, err := sys.Submit(wordCountJob(sys, input), approxhadoop.Approximation{TargetError: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	worstErr, worstRel := 0.0, 0.0
	for _, o := range res.Outputs {
		if o.Est.Err > worstErr {
			worstErr, worstRel = o.Est.Err, o.Est.RelErr()
		}
	}
	if worstRel > 0.05 {
		t.Errorf("target-error run bound %.4f exceeds 5%%", worstRel)
	}
}

func TestPublicAPIExtremeController(t *testing.T) {
	for _, spec := range []approxhadoop.Approximation{
		{TargetError: 0.1, Extreme: true},
		{TargetError: 0.01, Pilot: true, PilotRatio: 0.01, PilotTasks: 4},
	} {
		set, err := spec.Settings()
		if err != nil {
			t.Fatal(err)
		}
		if set.Controller == nil || set.Controller.Name() == "" {
			t.Errorf("%+v: controller missing or unnamed", spec)
		}
	}
}

func TestPublicAPIClusters(t *testing.T) {
	d := approxhadoop.DefaultCluster()
	if d.Servers != 10 {
		t.Errorf("default cluster: %+v", d)
	}
	a := approxhadoop.AtomCluster()
	if a.Servers != 60 {
		t.Errorf("atom cluster: %+v", a)
	}
}

func TestPublicAPIPerTaskMappers(t *testing.T) {
	p := func() approxhadoop.Mapper {
		return approxhadoop.MapperFunc(func(approxhadoop.Record, approxhadoop.Emitter) {})
	}
	f := approxhadoop.PerTaskMappers(0.5, 1, p, p)
	if f(0) == nil {
		t.Error("factory returned nil mapper")
	}
}

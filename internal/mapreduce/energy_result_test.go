package mapreduce

import (
	"math"
	"testing"

	"approxhadoop/internal/cluster"
)

func TestResultEnergyBreakdown(t *testing.T) {
	input, _ := wordCountInput(t, 2048) // single map task
	job := &Job{
		Input:     input,
		NewMapper: wordCountMapper,
		NewReduce: func(int) ReduceLogic { return SumReduce() },
		Reduces:   1,
		Cost:      cluster.AnalyticCost{T0: 100, Tr: 0.01, Tp: 0.01},
		SleepIdle: true,
	}
	res, err := Run(testEngine(), job)
	if err != nil {
		t.Fatal(err)
	}
	if res.Energy.BusyJ <= 0 {
		t.Errorf("busy energy should be positive: %+v", res.Energy)
	}
	if res.Energy.SleepJ <= 0 {
		t.Errorf("S3 job should record sleep energy: %+v", res.Energy)
	}
	if b := res.Energy; math.Abs((b.BusyJ+b.IdleJ+b.SleepJ)/3600-res.EnergyWh) > 1e-9 {
		t.Errorf("breakdown %v Wh != total %v Wh", (b.BusyJ+b.IdleJ+b.SleepJ)/3600, res.EnergyWh)
	}
}

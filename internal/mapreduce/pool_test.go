package mapreduce

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"

	"approxhadoop/internal/cluster"
	"approxhadoop/internal/dfs"
)

// poolTestController samples at a fixed ratio and drops a fixed count
// of tasks, exercising the approximation paths without importing the
// approx package (which would cycle).
type poolTestController struct {
	ratio float64
	drop  int
}

func (c *poolTestController) Name() string { return "pool-test" }

func (c *poolTestController) Plan(v *JobView) (float64, PlanAction) {
	if v.TotalMaps-v.Launched-v.Dropped <= c.drop && v.Dropped < c.drop {
		return 0, PlanDrop
	}
	return c.ratio, PlanRun
}

func (c *poolTestController) Completed(v *JobView) Directive { return Directive{} }

// poolScenario builds one job configuration per invocation; runs with
// different Workers settings must otherwise be identical.
type poolScenario struct {
	name  string
	build func(t *testing.T) *Job
}

func poolScenarios(t *testing.T) []poolScenario {
	t.Helper()
	return []poolScenario{
		{"precise", func(t *testing.T) *Job {
			input, _ := wordCountInput(t, 128)
			return &Job{
				Name:      "pool-precise",
				Input:     input,
				NewMapper: wordCountMapper,
				NewReduce: func(int) ReduceLogic { return SumReduce() },
				Reduces:   3,
				Seed:      7,
			}
		}},
		{"approx-speculative", func(t *testing.T) *Job {
			input, _ := wordCountInput(t, 64)
			return &Job{
				Name:        "pool-approx",
				Input:       input,
				NewMapper:   wordCountMapper,
				NewReduce:   func(int) ReduceLogic { return SumReduce() },
				Reduces:     2,
				Controller:  &poolTestController{ratio: 0.5, drop: 2},
				Speculation: true,
				SpecFactor:  1.2,
				Seed:        11,
			}
		}},
		{"straggler-speculation", func(t *testing.T) *Job {
			input, _ := wordCountInput(t, 64)
			return stragglerJob(input)
		}},
		{"faults-degrade", func(t *testing.T) *Job {
			input, _ := wordCountInput(t, 64)
			var faults []cluster.Fault
			for i := 0; i < 6; i++ {
				faults = append(faults, cluster.Fault{At: 0.5 + 0.3*float64(i), Kind: cluster.FaultTask, Server: i % 4})
			}
			faults = append(faults, cluster.Fault{At: 1.1, Kind: cluster.FaultServer, Server: 2, Recover: 2})
			return &Job{
				Name:          "pool-faults",
				Input:         input,
				NewMapper:     wordCountMapper,
				NewReduce:     func(int) ReduceLogic { return SumReduce() },
				Reduces:       2,
				Cost:          cluster.AnalyticCost{T0: 1, Tr: 0.001, Tp: 0.001},
				Seed:          17,
				Retry:         RetryPolicy{MaxAttemptsPerTask: 2, Backoff: 0.25},
				DegradeToDrop: true,
				Faults:        &cluster.FaultPlan{Faults: faults},
			}
		}},
	}
}

// stragglerJob slows one server to a crawl mid-job so its attempts
// straggle past the speculation threshold, forcing duplicate attempts
// through the pool.
func stragglerJob(input *dfs.File) *Job {
	return &Job{
		Name:        "pool-straggler",
		Input:       input,
		NewMapper:   wordCountMapper,
		NewReduce:   func(int) ReduceLogic { return SumReduce() },
		Reduces:     2,
		Cost:        cluster.AnalyticCost{T0: 1, Tr: 0.001, Tp: 0.001},
		Speculation: true,
		SpecFactor:  1.5,
		Seed:        23,
		Faults: &cluster.FaultPlan{Faults: []cluster.Fault{
			{At: 0.1, Kind: cluster.FaultSlow, Server: 1, Factor: 0.1},
		}},
	}
}

// TestPoolSpeculationExercised guards the straggler scenario against
// silently losing its coverage: it must actually speculate.
func TestPoolSpeculationExercised(t *testing.T) {
	input, _ := wordCountInput(t, 64)
	res, err := Run(testEngine(), stragglerJob(input))
	if err != nil {
		t.Fatal(err)
	}
	if res.Counters.MapsSpeculated == 0 {
		t.Fatal("straggler scenario did not speculate; pool speculation path untested")
	}
}

// runPool executes one scenario at the given pool size, capturing the
// full Result and trace event sequence.
func runPool(t *testing.T, sc poolScenario, workers int) (*Result, []Event) {
	t.Helper()
	job := sc.build(t)
	job.Workers = workers
	var events []Event
	job.Trace = func(e Event) { events = append(events, e) }
	res, err := Run(testEngine(), job)
	if err != nil {
		t.Fatalf("%s workers=%d: %v", sc.name, workers, err)
	}
	return res, events
}

// TestPoolSizeInvisible is the tentpole contract: a (job, seed) pair
// must produce a byte-identical Result — estimates, counters, energy,
// and trace event order — whether map compute runs inline (Workers=1)
// or on a worker pool (Workers=2, GOMAXPROCS), including under fault
// plans with retries, degradation, and speculation.
func TestPoolSizeInvisible(t *testing.T) {
	sizes := []int{1, 2, runtime.GOMAXPROCS(0) + 1, 0}
	for _, sc := range poolScenarios(t) {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			baseRes, baseEvents := runPool(t, sc, sizes[0])
			// Compare the full Result via its exhaustive rendering: %v is
			// bijective on float64 (and renders NaN error bounds equal,
			// which DeepEqual would not), so equal strings mean
			// bit-identical estimates, counters, and energy.
			baseStr := fmt.Sprintf("%+v", *baseRes)
			for _, w := range sizes[1:] {
				res, events := runPool(t, sc, w)
				if got := fmt.Sprintf("%+v", *res); got != baseStr {
					t.Errorf("workers=%d: Result differs from workers=1:\n got %s\nwant %s", w, got, baseStr)
				}
				if len(events) != len(baseEvents) {
					t.Fatalf("workers=%d: %d trace events, want %d", w, len(events), len(baseEvents))
				}
				for i := range events {
					if events[i] != baseEvents[i] {
						t.Errorf("workers=%d: event %d = %v, want %v", w, i, events[i], baseEvents[i])
					}
				}
			}
		})
	}
}

// TestPoolResultCacheReusesCompute verifies that retries and
// speculative duplicates of a (task, ratio) collect the task's one
// future instead of recomputing — whether an earlier attempt created it
// or readahead did before the first attempt was decided: mapper
// constructions are bounded by the number of distinct tasks even when
// attempts exceed it.
func TestPoolResultCacheReusesCompute(t *testing.T) {
	input, _ := wordCountInput(t, 64)
	var faults []cluster.Fault
	for i := 0; i < 6; i++ {
		faults = append(faults, cluster.Fault{At: 0.5 + 0.3*float64(i), Kind: cluster.FaultTask, Server: i % 4})
	}
	faults = append(faults, cluster.Fault{At: 0.1, Kind: cluster.FaultSlow, Server: 1, Factor: 0.1})
	for _, workers := range []int{1, 4} {
		var built atomic.Int64
		job := &Job{
			Name:  "pool-cache",
			Input: input,
			NewMapper: func() Mapper {
				built.Add(1)
				return wordCountMapper()
			},
			NewReduce:     func(int) ReduceLogic { return SumReduce() },
			Reduces:       2,
			Cost:          cluster.AnalyticCost{T0: 1, Tr: 0.001, Tp: 0.001},
			Seed:          17,
			Workers:       workers,
			Retry:         RetryPolicy{MaxAttemptsPerTask: 3, Backoff: 0.25},
			DegradeToDrop: true,
			Speculation:   true,
			SpecFactor:    1.5,
			Faults:        &cluster.FaultPlan{Faults: faults},
		}
		eng := testEngine()
		h, err := Start(eng, job, StartOptions{})
		if err != nil {
			t.Fatal(err)
		}
		eng.Run()
		res, err := h.Outcome()
		if err != nil {
			t.Fatal(err)
		}
		c := res.Counters
		if c.MapsRetried == 0 || c.MapsSpeculated == 0 {
			t.Fatalf("workers=%d: %d retries, %d speculative attempts; cache not exercised", workers, c.MapsRetried, c.MapsSpeculated)
		}
		if workers > 1 && h.t.aheadHits < 2 {
			t.Fatalf("workers=%d: readahead never armed (%d hits); its futures not exercised", workers, h.t.aheadHits)
		}
		if n := int(built.Load()); n > c.MapsTotal {
			t.Errorf("workers=%d: built %d mappers for %d tasks (%d retries, %d speculative): every attempt of a task must collect one future",
				workers, n, c.MapsTotal, c.MapsRetried, c.MapsSpeculated)
		}
	}
}

// TestFirstPassSizedFromFirstMap: before any map of a job completes, a
// pass that issues more futures than the pool can start at once hands
// the workers the next pool.workers of them, runs the first on the
// scheduler, and sizes every later one from what the first map held.
// The job here has as many blocks as the cluster has map slots, so its
// one pass launches every task.
func TestFirstPassSizedFromFirstMap(t *testing.T) {
	const slots = 8 // testEngine: 4 servers × 2 map slots
	input, _ := wordCountInput(t, 360)
	if n := len(input.Blocks); n != slots {
		t.Fatalf("%d blocks; the test needs %d", n, slots)
	}
	for _, workers := range []int{2, 4} {
		job := &Job{
			Name:      "first-pass",
			Input:     input,
			NewMapper: wordCountMapper,
			NewReduce: func(int) ReduceLogic { return SumReduce() },
			Reduces:   3,
			Combine:   true,
			Seed:      5,
			Workers:   workers,
		}
		eng := testEngine()
		h, err := Start(eng, job, StartOptions{})
		if err != nil {
			t.Fatal(err)
		}
		eng.Run()
		if _, err := h.Outcome(); err != nil {
			t.Fatal(err)
		}
		tr := h.t
		if tr.counters.MapsCompleted != len(input.Blocks) || tr.waves() != 1 {
			t.Fatalf("workers=%d: %d maps completed in %d waves, want all %d in one", workers, tr.counters.MapsCompleted, tr.waves(), len(input.Blocks))
		}
		first := tr.futures[tr.order[0]].res.size
		if first.keys == 0 || first.keyBytes == 0 || first.pairs == 0 {
			t.Fatalf("workers=%d: first map held %+v; nothing to size from", workers, first)
		}
		for i, idx := range tr.order {
			got := tr.futures[idx].hint
			want := emitHint{}
			if i > workers {
				want = first
			}
			if got != want {
				t.Errorf("workers=%d: future %d of the pass (task %d) has hint %+v, want %+v", workers, i, idx, got, want)
			}
		}
	}
}

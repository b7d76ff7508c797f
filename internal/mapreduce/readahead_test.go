package mapreduce_test

import (
	"bytes"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"

	approxhadoop "approxhadoop"
	"approxhadoop/internal/approx"
	"approxhadoop/internal/apps"
	"approxhadoop/internal/cluster"
	"approxhadoop/internal/dfs"
	"approxhadoop/internal/mapreduce"
	"approxhadoop/internal/workload"
)

// These tests drive the tracker's readahead with the shipped
// controllers, which the in-package pool tests cannot import (approx
// imports mapreduce). 200 blocks are two and a half waves of the
// default cluster's 80 map slots: one synchronous batch, then launches
// that trickle in one or two per scheduling pass — the shape readahead
// exists for.

// alternating launches at two ratios in turn, so the ratio of the next
// launch is never the ratio of the last one.
type alternating struct{}

func (alternating) Name() string { return "alternating" }

func (alternating) Plan(v *mapreduce.JobView) (float64, mapreduce.PlanAction) {
	if v.Launched%2 == 0 {
		return 0.3, mapreduce.PlanRun
	}
	return 0.6, mapreduce.PlanRun
}

func (alternating) Completed(*mapreduce.JobView) mapreduce.Directive { return mapreduce.Directive{} }

var poolControllers = []struct {
	name string
	make func() mapreduce.Controller
}{
	{"precise", func() mapreduce.Controller { return nil }},
	{"static", func() mapreduce.Controller { return approx.NewStatic(0.10, 0.25) }},
	{"target", func() mapreduce.Controller { return &approx.TargetError{Target: 0.02} }},
	{"deadline", func() mapreduce.Controller { return &approx.DeadlineSLO{Deadline: 30} }},
	{"alternating", func() mapreduce.Controller { return alternating{} }},
}

// poolEnvs are the cluster conditions of the matrix: the fault plan
// protects every server from fail-stops (each hosts unreplicated reduce
// state), so its faults are task kills and slowdowns that the retry
// budget turns into re-executions and degraded maps; the speculation
// row slows one server so duplicates are launched and one of each pair
// is killed.
var poolEnvs = []struct {
	name  string
	apply func(job *mapreduce.Job, seed int64)
}{
	{"clean", func(*mapreduce.Job, int64) {}},
	{"faults", func(job *mapreduce.Job, seed int64) {
		plan := approxhadoop.RandomFaultPlan(seed+20, 12, 10, 6, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9)
		job.Faults = &plan
		job.Retry = mapreduce.RetryPolicy{MaxAttemptsPerTask: 2}
		job.DegradeToDrop = true
	}},
	{"speculation", func(job *mapreduce.Job, _ int64) {
		job.Speculation = true
		job.SpecFactor = 1.5
		job.Faults = &cluster.FaultPlan{Faults: []cluster.Fault{
			{At: 0.1, Kind: cluster.FaultSlow, Server: 1, Factor: 0.1},
		}}
	}},
}

// poolJob builds one cell of the matrix.
func poolJob(ctl mapreduce.Controller, seed int64, workers int) *mapreduce.Job {
	log := workload.AccessLog{Blocks: 200, LinesPerBlock: 150, Projects: 60, Pages: 3000, Seed: seed}
	job := apps.ProjectPopularity(log.File("pool"), apps.Options{Seed: seed, Cost: approxhadoop.PaperCost(), Controller: ctl})
	job.Workers = workers
	return job
}

// runPoolJob runs job on a fresh default cluster and renders everything
// pool size must not move: the TSV bytes, the whole Result (%v is
// bijective on float64 and renders NaN bounds equal) and the event
// trace.
func runPoolJob(t *testing.T, job *mapreduce.Job) (*mapreduce.Result, string) {
	t.Helper()
	var out bytes.Buffer
	job.Trace = func(e mapreduce.Event) { fmt.Fprintf(&out, "%+v\n", e) }
	res, err := mapreduce.Run(cluster.New(cluster.DefaultConfig()), job)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(&out, "%+v\n", *res)
	if err := mapreduce.WriteTSV(&out, res); err != nil {
		t.Fatal(err)
	}
	return res, out.String()
}

// TestPoolSizeInvisibleControllers widens TestPoolSizeInvisible to the
// shipped controllers: WriteTSV, Counters, Runtime, EnergyWh, RealSecs
// and the event trace are identical at every pool size, whatever
// readahead computed early, withdrew or wasted, and however the
// partitions' ends were spread over the workers.
func TestPoolSizeInvisibleControllers(t *testing.T) {
	for _, ctl := range poolControllers {
		for _, env := range poolEnvs {
			ctl, env := ctl, env
			t.Run(ctl.name+"/"+env.name, func(t *testing.T) {
				t.Parallel()
				var want string
				for _, workers := range []int{1, 2, 4, 7} {
					job := poolJob(ctl.make(), 5, workers)
					env.apply(job, 5)
					res, got := runPoolJob(t, job)
					if workers == 1 {
						want = got
						// Guard the rows against silently losing what they cover.
						c := res.Counters
						if env.name == "faults" && (c.MapsFailed == 0 || c.MapsRetried == 0) {
							t.Fatalf("fault plan exercised no retry: %+v", c)
						}
						if env.name == "speculation" && c.MapsDropped == 0 && c.MapsSpeculated == 0 {
							t.Fatalf("slow server caused no speculation: %+v", c)
						}
					} else if got != want {
						t.Errorf("workers=%d differs from workers=1:\n got %s\nwant %s", workers, got, want)
					}
				}
			})
		}
	}
	manyKeyRows(t)
}

// manyKeyRows is the many-key row of TestPoolSizeInvisibleControllers,
// for the partitions' ends that run on the pool: a TargetError job whose
// thousands of keys spread over six reduce partitions, incremental and
// barrier, clean and under the fault plan. Everything runPoolJob renders
// — RealSecs and Runtime included — and RealSecs itself are identical at
// every pool size.
func manyKeyRows(t *testing.T) {
	for _, barrier := range []bool{false, true} {
		for _, env := range poolEnvs[:2] {
			barrier, env := barrier, env
			t.Run(fmt.Sprintf("manykeys/barrier=%t/%s", barrier, env.name), func(t *testing.T) {
				t.Parallel()
				var want string
				var wantSecs float64
				for _, workers := range []int{1, 2, 4, 7} {
					log := workload.AccessLog{Blocks: 160, LinesPerBlock: 300, Projects: 60, Pages: 6000, Seed: 5}
					job := apps.PagePopularity(log.File("pool-keys"), apps.Options{Seed: 5, Cost: approxhadoop.PaperCost(),
						Controller: &approx.TargetError{Target: 0.05}, Reduces: 6, Barrier: barrier})
					job.Workers = workers
					env.apply(job, 5)
					res, got := runPoolJob(t, job)
					if workers == 1 {
						want, wantSecs = got, res.RealSecs
						if len(res.Outputs) < 2000 {
							t.Fatalf("row covers %d keys, want thousands", len(res.Outputs))
						}
						if c := res.Counters; env.name == "faults" && (c.MapsFailed == 0 || c.MapsRetried == 0) {
							t.Fatalf("fault plan exercised no retry: %+v", c)
						}
						continue
					}
					//lint:ignore nofloateq pool size must not move a bit of the metered seconds
					if res.RealSecs != wantSecs {
						t.Errorf("workers=%d: RealSecs %v, workers=1 %v", workers, res.RealSecs, wantSecs)
					}
					if got != want {
						t.Errorf("workers=%d differs from workers=1:\n got %s\nwant %s", workers, got, want)
					}
				}
			})
		}
	}
}

// countingInput counts Open calls: one per executeMap invocation.
type countingInput struct {
	inner mapreduce.InputFormat
	opens *atomic.Int64
}

func (c countingInput) Open(b *dfs.Block, ratio float64, seed int64) (mapreduce.RecordReader, error) {
	c.opens.Add(1)
	return c.inner.Open(b, ratio, seed)
}

// TestPoolReadaheadWaste bounds the map computations readahead may
// waste, by shape: none where every prediction comes true (precise) or
// where readahead never arms (one wave then drop; a ratio that changes
// every launch), at most one window where a fixed-ratio job stops
// launching without the tracker being told.
func TestPoolReadaheadWaste(t *testing.T) {
	for _, workers := range []int{2, 4, 7} {
		window := int64(4 * workers)
		for _, tc := range []struct {
			name  string
			job   func() *mapreduce.Job
			slack int64 // opens allowed beyond MapsCompleted
		}{
			{"precise", func() *mapreduce.Job { return poolJob(nil, 3, workers) }, 0},
			{"static", func() *mapreduce.Job { return poolJob(approx.NewStatic(0.10, 0.25), 3, workers) }, window},
			{"alternating", func() *mapreduce.Job { return poolJob(alternating{}, 3, workers) }, 0},
			{"one-wave-target", func() *mapreduce.Job {
				log := workload.AccessLog{Blocks: 240, LinesPerBlock: 300, Projects: 400, Pages: 20000, Seed: 3}
				job := apps.PagePopularity(log.File("pool-target"), apps.Options{
					Seed: 3, Cost: approxhadoop.PaperCost(), Controller: &approx.TargetError{Target: 0.05}})
				job.Workers = workers
				return job
			}, 0},
		} {
			t.Run(fmt.Sprintf("%s/workers=%d", tc.name, workers), func(t *testing.T) {
				job := tc.job()
				var opens atomic.Int64
				job.Format = countingInput{job.Format, &opens}
				res, _ := runPoolJob(t, job)
				c := res.Counters
				t.Logf("opens %d, completed %d, dropped %d, killed %d", opens.Load(), c.MapsCompleted, c.MapsDropped, c.MapsKilled)
				if c.MapsKilled != 0 {
					t.Fatalf("scenario killed %d maps; Open calls no longer compare with MapsCompleted", c.MapsKilled)
				}
				if got, min := opens.Load(), int64(c.MapsCompleted); got < min || got > min+tc.slack {
					t.Errorf("%d Open calls for %d completed maps, want at most %d more", got, min, tc.slack)
				}
			})
		}
	}
}

// failingInput fails Open for every block from index bad on.
type failingInput struct {
	inner mapreduce.InputFormat
	bad   int
}

func (f failingInput) Open(b *dfs.Block, ratio float64, seed int64) (mapreduce.RecordReader, error) {
	if b.Index >= f.bad {
		return nil, fmt.Errorf("block %d is unreadable", b.Index)
	}
	return f.inner.Open(b, ratio, seed)
}

// TestPoolReadaheadAbort ends jobs while readahead is armed and has
// futures in flight: the job's error is the one the sequential run
// reports — a readahead future that fails is reported only if and when
// its launch is decided — and tearing the pool down leaves no goroutine
// behind.
func TestPoolReadaheadAbort(t *testing.T) {
	// All three abort in the trickle after the first wave, where every
	// launch has been matching its prediction for a while.
	aborts := []struct {
		name string
		run  func(job *mapreduce.Job) error
	}{
		{"map-error", func(job *mapreduce.Job) error {
			// Every block from the 90th launch on is unreadable: the
			// sequential run fails at the first of them in launch order,
			// while readahead has computed — and failed — several.
			job.SequentialOrder = true
			job.Format = failingInput{job.Format, 90}
			_, err := mapreduce.Run(cluster.New(cluster.DefaultConfig()), job)
			return err
		}},
		{"deadline", func(job *mapreduce.Job) error {
			job.Retry.JobDeadline = 3.5
			_, err := mapreduce.Run(cluster.New(cluster.DefaultConfig()), job)
			return err
		}},
		{"cancel", func(job *mapreduce.Job) error {
			eng := cluster.New(cluster.DefaultConfig())
			h, err := mapreduce.Start(eng, job, mapreduce.StartOptions{})
			if err != nil {
				return err
			}
			for h.Progress().MapsCompleted < 40 && eng.Step() {
			}
			h.Cancel()
			eng.Run()
			_, err = h.Outcome()
			return err
		}},
	}
	for _, ab := range aborts {
		t.Run(ab.name, func(t *testing.T) {
			want := ab.run(poolJob(approx.NewStatic(0.10, 0.25), 9, 1))
			if want == nil {
				t.Fatal("scenario did not abort the job")
			}
			for _, workers := range []int{2, 4, 7} {
				before := runtime.NumGoroutine()
				got := ab.run(poolJob(approx.NewStatic(0.10, 0.25), 9, workers))
				if got == nil || got.Error() != want.Error() {
					t.Errorf("workers=%d: error %v, want %v", workers, got, want)
				}
				// close has waited for every worker to return from its
				// loop; give the runtime a moment to retire them.
				for i := 0; i < 1<<20 && runtime.NumGoroutine() > before; i++ {
					runtime.Gosched()
				}
				if n := runtime.NumGoroutine(); n > before {
					t.Errorf("workers=%d: %d goroutines after the job, %d before", workers, n, before)
				}
			}
		})
	}
}

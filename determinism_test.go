package approxhadoop_test

import (
	"runtime"
	"strconv"
	"testing"

	approxhadoop "approxhadoop"
	"approxhadoop/internal/stats"
)

// detRun executes the canonical determinism job — approximate
// wordcount with a retry policy and, when withFaults is set, a random
// fault plan that lands on running attempts — at the given map-compute
// pool size.
func detRun(t *testing.T, workers int, withFaults bool) *approxhadoop.Result {
	t.Helper()
	sys := approxhadoop.NewSystem(approxhadoop.DefaultCluster())
	input := approxhadoop.SplitText("pages.txt", corpus(), 1024)
	if err := sys.Store(input); err != nil {
		t.Fatal(err)
	}
	job := wordCountJob(sys, input)
	job.Workers = workers
	// Determinism must survive fault injection too. The job leaves
	// Reduces at its default (one per server), so every server hosts
	// unreplicated reduce state: protect all of them from fail-stops
	// (their faults weaken to transient task faults) and exercise
	// the retry/degrade machinery instead. The analytic cost model
	// stretches the map phase across the fault horizon so the
	// faults actually land on running attempts.
	job.Cost = approxhadoop.AnalyticCost{T0: 1, Tr: 0.01, Tp: 0.01}
	if withFaults {
		plan := approxhadoop.RandomFaultPlan(21, 8, 10, 1.5,
			0, 1, 2, 3, 4, 5, 6, 7, 8, 9)
		job.Faults = &plan
	}
	job.Retry = approxhadoop.RetryPolicy{MaxAttemptsPerTask: 3, Backoff: 0.25}
	job.DegradeToDrop = true
	job.RecordTrace = true
	res, err := sys.Submit(job, approxhadoop.Approximation{SampleRatio: 0.25, DropRatio: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// compareResults requires bitwise agreement of runtime, energy, and
// every estimate with its error bound.
func compareResults(t *testing.T, label string, a, b *approxhadoop.Result) {
	t.Helper()
	if !stats.AlmostEqual(a.Runtime, b.Runtime, 0) {
		t.Errorf("%s: runtimes differ: %v vs %v", label, a.Runtime, b.Runtime)
	}
	if !stats.AlmostEqual(a.EnergyWh, b.EnergyWh, 0) {
		t.Errorf("%s: energy differs: %v vs %v", label, a.EnergyWh, b.EnergyWh)
	}
	if len(a.Outputs) != len(b.Outputs) {
		t.Fatalf("%s: output counts differ: %d vs %d", label, len(a.Outputs), len(b.Outputs))
	}
	for i := range a.Outputs {
		x, y := a.Outputs[i], b.Outputs[i]
		if x.Key != y.Key ||
			!stats.AlmostEqual(x.Est.Value, y.Est.Value, 0) ||
			!stats.AlmostEqual(x.Est.Err, y.Est.Err, 0) {
			t.Errorf("%s: output %d differs: %+v vs %+v", label, i, x, y)
		}
	}
}

// TestSameSeedRunsIdentical is the determinism acceptance check: two
// complete simulations of the same approximate job with the same seed
// must agree bit-for-bit — runtime, energy, and every estimate with
// its error bound. Wall-clock task measurement or a global rand draw
// anywhere in the pipeline breaks this (that is what approxlint's
// virtualclock and seededrand analyzers guard against).
//
// The check also spans map-compute pool sizes: running user map code
// on 1, 2, or GOMAXPROCS worker goroutines must be invisible to the
// virtual timeline, with and without fault injection (the purity
// analyzer guards the purity this relies on).
func TestSameSeedRunsIdentical(t *testing.T) {
	for _, tc := range []struct {
		name       string
		withFaults bool
	}{{"faults", true}, {"clean", false}} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			base := detRun(t, 1, tc.withFaults)
			again := detRun(t, 1, tc.withFaults)
			compareResults(t, "rerun", base, again)
			for _, w := range []int{2, runtime.GOMAXPROCS(0) + 1} {
				pooled := detRun(t, w, tc.withFaults)
				compareResults(t, "workers="+strconv.Itoa(w), base, pooled)
			}
		})
	}
}

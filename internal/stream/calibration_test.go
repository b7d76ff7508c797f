package stream_test

import (
	"testing"

	"approxhadoop/internal/stream"
	"approxhadoop/internal/workload"
)

// exactTwin reruns a pipeline's query over the same arrival trace with
// unbounded reservoirs and no target or latency budget (so no
// controller), yielding per-window ground truth: every window must come
// back Exact.
func exactTwin(t *testing.T, mk func(capacity int, slo stream.SLO) *stream.Pipeline) []stream.WindowResult {
	t.Helper()
	truth := mustRun(t, mk(1<<20, stream.SLO{}))
	for _, r := range truth {
		if !r.Exact {
			t.Fatalf("ground-truth twin window %d not exact (capacity unbounded, nothing shed)", r.Index)
		}
	}
	return truth
}

// coverageCount tallies how many non-exact windows' intervals cover
// the exact value, over windows where a finite interval was claimed.
func coverageCount(t *testing.T, truth, approx []stream.WindowResult) (covered, claimed, degraded int) {
	t.Helper()
	if len(truth) != len(approx) {
		t.Fatalf("twin runs emitted %d vs %d windows; traces diverged", len(truth), len(approx))
	}
	for i, r := range approx {
		exact := truth[i]
		if exact.Records != r.Records {
			t.Fatalf("window %d routed %d records in the twin, %d approximate; traces diverged", r.Index, exact.Records, r.Records)
		}
		if r.Exact {
			if r.Est.Value != exact.Est.Value { //lint:ignore nofloateq exact windows must agree bit-for-bit
				t.Fatalf("window %d: exact approximate value %g != ground truth %g", r.Index, r.Est.Value, exact.Est.Value)
			}
			continue
		}
		if r.Degraded {
			degraded++
		}
		claimed++
		if exact.Est.Value >= r.Est.Lo() && exact.Est.Value <= r.Est.Hi() {
			covered++
		}
	}
	return covered, claimed, degraded
}

// TestWindowCICalibrationSum: across seeds and a 3x rate swing,
// ~95% of per-window sum intervals must cover the exact per-window
// value. The value here (edit page ids over project strata) has a
// skewed but finite-variance distribution — the regime the t-based
// theory targets.
func TestWindowCICalibrationSum(t *testing.T) {
	gen := workload.EditLog{Blocks: 8, LinesPerBlock: 2000, Projects: 40, Editors: 2000, Pages: 20000, Seed: 6}
	q := stream.Query{
		Name: "edit-volume",
		Op:   stream.OpSum,
		Stratify: func(line []byte) []byte {
			return tsvFieldTest(line, 1)
		},
		Value: func(line []byte) (float64, bool) {
			f := tsvFieldTest(line, 3) // "page<N>"
			if len(f) < 5 {
				return 0, false
			}
			var n int64
			for _, c := range f[4:] {
				if c < '0' || c > '9' {
					return 0, false
				}
				n = n*10 + int64(c-'0')
			}
			return float64(n), true
		},
		Window:  stream.Window{Size: 5},
		Buckets: 16,
	}
	var covered, claimed int
	for seed := int64(1); seed <= 24; seed++ {
		mk := func(capacity int, slo stream.SLO) *stream.Pipeline {
			qq := q
			qq.Seed = seed
			qq.Capacity = capacity
			qq.SLO = slo
			return &stream.Pipeline{
				Query:  qq,
				Source: workload.StreamFrom(gen.File("cal"), workload.StreamOptions{Rate: workload.DiurnalRate(400, 0.5, 60), Seed: seed}),
			}
		}
		truth := exactTwin(t, mk)
		approx := mustRun(t, mk(64, stream.SLO{}))
		c, n, _ := coverageCount(t, truth, approx)
		covered += c
		claimed += n
	}
	if claimed < 150 {
		t.Fatalf("only %d sampled windows across trials; the scenario should be approximating", claimed)
	}
	frac := float64(covered) / float64(claimed)
	t.Logf("sum calibration: %d/%d windows covered (%.3f)", covered, claimed, frac)
	// 95% nominal; demand >= 0.90 to leave room for binomial noise
	// (~200 trials) and the skew of the value distribution.
	if frac < 0.90 {
		t.Errorf("per-window CI coverage %.3f below 0.90 for nominal 95%% intervals", frac)
	}
}

// TestWindowCICalibrationDegraded: coverage must also hold for count
// windows whose plan the controller degraded (shed strata = dropped
// clusters), which exercises the between-cluster variance term under
// a rate swing.
func TestWindowCICalibrationDegraded(t *testing.T) {
	var covered, claimed, degraded int
	for seed := int64(1); seed <= 24; seed++ {
		web := workload.WebLog{Blocks: 3, LinesPerBlock: 8000, Clients: 3000, Attackers: 40, AttackRate: 0.02, Seed: 8}
		q := stream.Query{
			Name: "web-hits",
			Op:   stream.OpCount,
			// Stratify by hour-of-week: time-of-day substreams have
			// near-balanced traffic (±30%), the exchangeable-cluster
			// regime task dropping assumes.
			Stratify: func(line []byte) []byte {
				return tsvFieldTest(line, 1)
			},
			Buckets: 32,
			Window:  stream.Window{Size: 5},
			Seed:    seed,
		}
		mk := func(capacity int, slo stream.SLO) *stream.Pipeline {
			qq := q
			qq.Capacity = capacity
			qq.SLO = slo
			return &stream.Pipeline{
				Query:  qq,
				Source: workload.StreamFrom(web.File("cal"), workload.StreamOptions{Rate: workload.DiurnalRate(500, 0.5, 60), Seed: seed}),
			}
		}
		truth := exactTwin(t, mk)
		// A latency budget only shedding can meet: count queries do no
		// per-unit sampling, so KeepFrac is the controller's only lever.
		approx := mustRun(t, mk(64, stream.SLO{MaxLatency: 0.035}))
		c, n, d := coverageCount(t, truth, approx)
		covered += c
		claimed += n
		degraded += d
	}
	if degraded < 50 {
		t.Fatalf("only %d degraded windows across trials; shedding never engaged", degraded)
	}
	frac := float64(covered) / float64(claimed)
	t.Logf("degraded-count calibration: %d/%d covered (%.3f), %d degraded", covered, claimed, frac, degraded)
	if frac < 0.88 {
		t.Errorf("degraded-window CI coverage %.3f below 0.88 for nominal 95%% intervals", frac)
	}
}

// tsvFieldTest mirrors the apps helper for test-local queries.
func tsvFieldTest(line []byte, idx int) []byte {
	start, field := 0, 0
	for i := 0; i <= len(line); i++ {
		if i == len(line) || line[i] == '\t' {
			if field == idx {
				return line[start:i]
			}
			field++
			start = i + 1
		}
	}
	return nil
}

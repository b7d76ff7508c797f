// The windowed-accuracy experiment of the streaming plane: run a
// continuous query under an adaptive SLO controller across a 3x
// diurnal input-rate swing, rerun the identical arrival trace exactly,
// and report per-window realized error, CI coverage, and modeled
// latency. A fixed-plan run on the same trace is the comparison point:
// it shows what the swing does to a sampling ratio nobody retunes.
package harness

import (
	"fmt"
	"math"
	"sort"

	"approxhadoop/internal/apps"
	"approxhadoop/internal/stream"
	"approxhadoop/internal/workload"
)

// StreamWindowRow is one window of the adaptive run, paired with its
// exact ground truth.
type StreamWindowRow struct {
	Index    int64   `json:"index"`
	Records  int64   `json:"records"`
	Rate     float64 `json:"rate"` // realized records/sec in the window
	Ratio    float64 `json:"ratio"`
	Capacity int     `json:"capacity"`
	KeepFrac float64 `json:"keepFrac"`
	// RelErr is the realized |approx-exact|/exact; Claimed the
	// estimator's relative CI half-width (what the controller steers).
	RelErr  float64 `json:"relErr"`
	Claimed float64 `json:"claimed"`
	Covered bool    `json:"covered"`
	Latency float64 `json:"latencySecs"`
	Exact   bool    `json:"exact,omitempty"`
}

// StreamSummary aggregates one configuration's post-warmup windows
// across reps. Warmup windows (the controller's capped-growth ramp
// from the cold-start plan) are excluded from every aggregate; they
// still appear in the per-window rows.
type StreamSummary struct {
	Config     string  `json:"config"`
	Windows    int     `json:"windows"`
	Warmup     int     `json:"warmup"`   // windows excluded as cold start
	Sampled    int     `json:"sampled"`  // non-exact windows
	Degraded   int     `json:"degraded"` // windows with shed strata
	Coverage   float64 `json:"coverage"` // exact value inside the 95% CI
	MeanRelErr float64 `json:"meanRelErr"`
	P95RelErr  float64 `json:"p95RelErr"`
	P95Latency float64 `json:"p95LatencySecs"`
	// Violations counts windows whose claimed error broke the SLO
	// target — for the fixed plan, the violations an SLO *would* have
	// seen, which is exactly what the adaptive controller removes.
	Violations int `json:"violations"`
}

// StreamReport is the experiment's recorded artifact (embedded in
// approxbench trajectories as the "stream" experiment's payload).
type StreamReport struct {
	SLOTarget float64 `json:"sloTarget"`
	// RateMin/RateMax bound the realized per-window input rate — the
	// swing the controller had to ride out.
	RateMin  float64           `json:"rateMin"`
	RateMax  float64           `json:"rateMax"`
	Adaptive StreamSummary     `json:"adaptive"`
	Fixed    StreamSummary     `json:"fixed"`
	Windows  []StreamWindowRow `json:"windows"` // adaptive run, first rep
}

// streamScenario builds the experiment's pipelines: the web-bytes
// scenario over a diurnal trace whose arrivals the three runs (exact
// twin, adaptive, fixed-plan) see identically. The zero SLO runs a
// fixed plan.
func (r *Runner) streamScenario(rep int, capacity int, slo stream.SLO) *stream.Pipeline {
	seed := r.cfg.Seed + int64(rep)*7919
	maxW := int(16 * r.cfg.Scale)
	if maxW < 8 {
		maxW = 8
	}
	const rate, size = 2000.0, 5.0
	// Size the source to outlast the window budget at the peak rate.
	records := int(rate * size * float64(maxW+2) * 1.5)
	web := workload.WebLog{Blocks: 8, LinesPerBlock: records / 8, Clients: 3000, Attackers: 40, AttackRate: 0.02, Seed: 8}
	return apps.WebBytesStream(web, apps.StreamOptions{
		Seed:       seed,
		Rate:       workload.DiurnalRate(rate, 0.5, 60),
		Window:     stream.Window{Size: size},
		SLO:        slo,
		Capacity:   capacity,
		MaxWindows: maxW,
	})
}

// streamWarmup is the number of leading windows excluded from summary
// aggregates: the controller grows at most 4x per window from the
// cold-start plan, so reaching an SLO-sized sample from a small
// starting capacity takes two windows by construction.
const streamWarmup = 2

// streamAgg accumulates summary state across reps.
type streamAgg struct {
	relErrs, lats     []float64
	covered, sampled  int
	degraded, windows int
	warmup            int
	violations        int
}

// observe folds one (approx, exact) window pair into the aggregates
// and returns its report row. Warmup windows produce a row but touch
// no aggregate.
func (a *streamAgg) observe(approx, exact stream.WindowResult, target float64) StreamWindowRow {
	row := StreamWindowRow{
		Index:    approx.Index,
		Records:  approx.Records,
		Rate:     float64(approx.Records) / (approx.End - approx.Start),
		Ratio:    approx.Ratio(),
		Capacity: approx.Plan.Capacity,
		KeepFrac: approx.Plan.KeepFrac,
		Latency:  approx.Latency,
		Exact:    approx.Exact,
	}
	if exact.Est.Value != 0 {
		row.RelErr = math.Abs(approx.Est.Value-exact.Est.Value) / math.Abs(exact.Est.Value)
	}
	if approx.Exact {
		row.Covered = true
	} else {
		row.Claimed = approx.Est.RelErr()
		row.Covered = exact.Est.Value >= approx.Est.Lo() && exact.Est.Value <= approx.Est.Hi()
	}
	if approx.Index < streamWarmup {
		a.warmup++
		return row
	}
	a.windows++
	a.lats = append(a.lats, approx.Latency)
	if approx.Degraded {
		a.degraded++
	}
	if approx.Exact {
		return row
	}
	a.sampled++
	if row.Covered {
		a.covered++
	}
	a.relErrs = append(a.relErrs, row.RelErr)
	if target > 0 && row.Claimed > target {
		a.violations++
	}
	return row
}

// summary folds the aggregate into its reportable form.
func (a *streamAgg) summary(config string) StreamSummary {
	s := StreamSummary{
		Config:     config,
		Windows:    a.windows,
		Warmup:     a.warmup,
		Sampled:    a.sampled,
		Degraded:   a.degraded,
		Violations: a.violations,
		P95Latency: percentile(a.lats, 0.95),
		P95RelErr:  percentile(a.relErrs, 0.95),
	}
	if a.sampled > 0 {
		s.Coverage = float64(a.covered) / float64(a.sampled)
	}
	var sum float64
	for _, e := range a.relErrs {
		sum += e
	}
	if len(a.relErrs) > 0 {
		s.MeanRelErr = sum / float64(len(a.relErrs))
	}
	return s
}

// percentile returns the p-quantile of xs by nearest-rank (0 when
// empty). xs is not modified.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

// StreamAccuracy runs the windowed-accuracy experiment: per rep, one
// exact twin (unbounded reservoirs — per-window ground truth), one
// adaptive run steering toward the error SLO, and one fixed-plan run
// with the adaptive run's starting capacity. The interesting claims:
// the adaptive run holds the SLO across the full rate swing while the
// fixed plan's realized error breathes with the input rate, and the
// claimed 95% intervals actually cover the exact values.
func (r *Runner) StreamAccuracy() (*StreamReport, error) {
	// The web-bytes values are heavy-tailed (CV near 5), so a 10%
	// target is the regime where sampling genuinely engages: tighter
	// targets force near-enumeration at this per-window volume and the
	// controller has nothing to trade.
	const target = 0.10
	const startCap = 64
	report := &StreamReport{SLOTarget: target, RateMin: math.Inf(1)}
	var adaptive, fixed streamAgg
	for rep := 0; rep < r.cfg.Reps; rep++ {
		exact, err := r.streamScenario(rep, 1<<20, stream.SLO{}).Run()
		if err != nil {
			return nil, fmt.Errorf("stream exact twin: %w", err)
		}
		for _, w := range exact {
			if !w.Exact {
				return nil, fmt.Errorf("stream exact twin window %d not exact", w.Index)
			}
			rate := float64(w.Records) / (w.End - w.Start)
			if rate < report.RateMin {
				report.RateMin = rate
			}
			if rate > report.RateMax {
				report.RateMax = rate
			}
		}
		adSeries, err := r.streamScenario(rep, startCap, stream.SLO{TargetRelErr: target, MaxLatency: 0.8}).Run()
		if err != nil {
			return nil, fmt.Errorf("stream adaptive run: %w", err)
		}
		fxSeries, err := r.streamScenario(rep, startCap, stream.SLO{}).Run()
		if err != nil {
			return nil, fmt.Errorf("stream fixed run: %w", err)
		}
		if len(adSeries) != len(exact) || len(fxSeries) != len(exact) {
			return nil, fmt.Errorf("stream twins diverged: %d/%d/%d windows", len(exact), len(adSeries), len(fxSeries))
		}
		for i := range adSeries {
			row := adaptive.observe(adSeries[i], exact[i], target)
			if rep == 0 {
				report.Windows = append(report.Windows, row)
			}
			fixed.observe(fxSeries[i], exact[i], target)
		}
	}
	report.Adaptive = adaptive.summary("adaptive")
	report.Fixed = fixed.summary(fmt.Sprintf("fixed cap %d", startCap))

	rows := make([][]string, 0, len(report.Windows))
	for _, w := range report.Windows {
		rows = append(rows, []string{
			fmt.Sprintf("%d", w.Index), fmt.Sprintf("%d", w.Records), f1(w.Rate),
			fmt.Sprintf("%d", w.Capacity), f2(w.KeepFrac), f3(w.Ratio),
			pct(100 * w.RelErr), pct(100 * w.Claimed), fmt.Sprintf("%v", w.Covered), f3(w.Latency),
		})
	}
	r.printPoints("Streaming plane: adaptive windows (rep 0)",
		[]string{"Win", "Records", "Rate/s", "Cap", "Keep", "Ratio", "ActErr", "CI", "Covered", "Lat(s)"}, rows)
	sums := [][]string{}
	for _, s := range []StreamSummary{report.Adaptive, report.Fixed} {
		sums = append(sums, []string{
			s.Config, fmt.Sprintf("%d", s.Windows), fmt.Sprintf("%d", s.Sampled),
			fmt.Sprintf("%d", s.Degraded), f3(s.Coverage), pct(100 * s.MeanRelErr),
			pct(100 * s.P95RelErr), fmt.Sprintf("%d", s.Violations), f3(s.P95Latency),
		})
	}
	r.printPoints(fmt.Sprintf("Streaming plane: SLO %.0f%% across %.0f-%.0f rec/s",
		target*100, report.RateMin, report.RateMax),
		[]string{"Config", "Windows", "Sampled", "Degraded", "Coverage", "MeanErr", "P95Err", "Violations", "P95Lat(s)"}, sums)
	return report, nil
}

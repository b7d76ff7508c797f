package harness

import (
	"fmt"
	"io"

	"approxhadoop/internal/approx"
	"approxhadoop/internal/apps"
	"approxhadoop/internal/cluster"
	"approxhadoop/internal/dfs"
	"approxhadoop/internal/mapreduce"
)

// AblationRow is one configuration of an ablation study.
type AblationRow struct {
	Name      string
	Runtime   float64
	ActualPct float64
	CIPct     float64
}

// driftingLog builds an input whose per-record values grow with the
// block index (time-drifting data, e.g. traffic that grew over the
// year): the adversarial case for biased task ordering.
func (r *Runner) driftingLog(blocks, lines int) *dfs.File {
	gen := func(idx int, rng dfs.RandSource, bw io.Writer) error {
		for i := 0; i < lines; i++ {
			v := float64(idx+1) * (0.8 + float64(rng.Int63()%400)/1000)
			if _, err := fmt.Fprintf(bw, "traffic\t%.3f\n", v); err != nil {
				return err
			}
		}
		return nil
	}
	return dfs.GeneratedFile("drifting-log", blocks, r.cfg.Seed, int64(lines)*16, int64(lines), gen)
}

// AblationTaskOrder shows why ApproxHadoop randomizes map-task order
// (Section 4.3): with task dropping on time-drifting data, sequential
// order only ever sees the early blocks and underestimates the total
// by a wide, deterministic margin, while random order keeps the
// two-stage sample valid (unbiased).
func (r *Runner) AblationTaskOrder() ([]AblationRow, error) {
	input := r.driftingLog(32, r.scaleN(500))
	mapper := func() mapreduce.Mapper {
		return mapreduce.MapperFunc(func(rec mapreduce.Record, emit mapreduce.Emitter) {
			var key string
			var v float64
			if _, err := fmt.Sscanf(rec.Value, "%s %f", &key, &v); err == nil {
				emit.Emit(key, v)
			}
		})
	}
	build := func(seq bool, ctl mapreduce.Controller) *mapreduce.Job {
		job := &mapreduce.Job{
			Name:            "drift-sum",
			Input:           input,
			Format:          approx.ApproxTextInput{},
			NewMapper:       mapper,
			NewReduce:       func(int) mapreduce.ReduceLogic { return approx.NewMultiStageReducer(approx.OpSum) },
			Combine:         true,
			Controller:      ctl,
			Cost:            r.cfg.Cost,
			Seed:            r.cfg.Seed,
			SequentialOrder: seq,
		}
		return job
	}
	precise, err := r.runJob(build(false, nil))
	if err != nil {
		return nil, err
	}
	var out []AblationRow
	rows := [][]string{}
	for _, cfg := range []struct {
		name string
		seq  bool
	}{{"random order (ApproxHadoop)", false}, {"sequential order (ablation)", true}} {
		res, err := r.runJob(build(cfg.seq, approx.NewStatic(1, 0.5)))
		if err != nil {
			return nil, err
		}
		act, ci := ActualError(precise, res)
		row := AblationRow{Name: cfg.name, Runtime: res.Runtime, ActualPct: act * 100, CIPct: ci * 100}
		out = append(out, row)
		rows = append(rows, []string{row.Name, f1(row.Runtime), pct(row.ActualPct), pct(row.CIPct)})
	}
	r.printPoints("Ablation: map-task ordering under 50% dropping (drifting data)",
		[]string{"Configuration", "Runtime(s)", "ActualErr", "95%CI"}, rows)
	return out, nil
}

// AblationBarrier compares the barrier-less incremental reduce
// (required by online error estimation) with a conventional barrier.
func (r *Runner) AblationBarrier() ([]AblationRow, error) {
	input := r.input(apps.AccessLog)
	build := func(barrier bool, ctl mapreduce.Controller) *mapreduce.Job {
		job := apps.ProjectPopularity(input, r.opts(ctl, 0, false))
		job.Barrier = barrier
		return job
	}
	var out []AblationRow
	rows := [][]string{}
	for _, cfg := range []struct {
		name    string
		barrier bool
		ctl     mapreduce.Controller
	}{
		{"incremental, target 1%", false, &approx.TargetError{Target: 0.01}},
		{"barrier, target 1% (controller starved)", true, &approx.TargetError{Target: 0.01}},
		{"incremental, static 25% sampling", false, approx.NewStatic(0.25, 0)},
		{"barrier, static 25% sampling", true, approx.NewStatic(0.25, 0)},
	} {
		res, err := r.runJob(build(cfg.barrier, cfg.ctl))
		if err != nil {
			return nil, err
		}
		ci := 0.0
		if worst, ok := WorstKey(res); ok {
			ci = worst.Est.RelErr() * 100
		}
		row := AblationRow{Name: cfg.name, Runtime: res.Runtime, CIPct: ci}
		out = append(out, row)
		rows = append(rows, []string{row.Name, f1(row.Runtime), pct(row.CIPct),
			fmt.Sprintf("%d maps", res.Counters.MapsCompleted)})
	}
	r.printPoints("Ablation: barrier-less incremental reduce",
		[]string{"Configuration", "Runtime(s)", "95%CI", "Work"}, rows)
	return out, nil
}

// AblationVarianceSplit contrasts dropping and sampling at the same
// effective data fraction: dropping is cheaper but wider (the design
// rationale for combining both, Section 5.2).
func (r *Runner) AblationVarianceSplit() ([]AblationRow, error) {
	input := r.input(apps.AccessLog)
	build := func(ctl mapreduce.Controller) *mapreduce.Job {
		return apps.ProjectPopularity(input, r.opts(ctl, 0, false))
	}
	precise, err := r.runJob(build(nil))
	if err != nil {
		return nil, err
	}
	var out []AblationRow
	rows := [][]string{}
	for _, cfg := range []struct {
		name string
		ctl  mapreduce.Controller
	}{
		{"sample 25% of items", approx.NewStatic(0.25, 0)},
		{"drop 75% of tasks", approx.NewStatic(1, 0.75)},
		{"drop 50% + sample 50%", approx.NewStatic(0.5, 0.5)},
	} {
		res, err := r.runJob(build(cfg.ctl))
		if err != nil {
			return nil, err
		}
		act, ci := ActualError(precise, res)
		row := AblationRow{Name: cfg.name, Runtime: res.Runtime, ActualPct: act * 100, CIPct: ci * 100}
		out = append(out, row)
		rows = append(rows, []string{row.Name, f1(row.Runtime), pct(row.ActualPct), pct(row.CIPct)})
	}
	r.printPoints("Ablation: same 25% data fraction, different mechanisms",
		[]string{"Configuration", "Runtime(s)", "ActualErr", "95%CI"}, rows)
	return out, nil
}

// AblationCostModel runs the same approximate job under the measured
// and analytic cost models: absolute seconds differ (host time vs
// paper-calibrated), but the approximate-to-precise runtime ratio —
// the paper's reported quantity — must agree in shape.
func (r *Runner) AblationCostModel() ([]AblationRow, error) {
	input := r.input(apps.AccessLog)
	var out []AblationRow
	rows := [][]string{}
	for _, cfg := range []struct {
		name string
		opts apps.Options
	}{
		{"measured precise", apps.Options{Seed: r.cfg.Seed}},
		{"measured sampled 10%", apps.Options{Seed: r.cfg.Seed, Controller: approx.NewStatic(0.1, 0)}},
		{"analytic precise", apps.Options{Seed: r.cfg.Seed, Cost: cluster.PaperCost()}},
		{"analytic sampled 10%", apps.Options{Seed: r.cfg.Seed, Cost: cluster.PaperCost(), Controller: approx.NewStatic(0.1, 0)}},
	} {
		res, err := r.runJob(apps.ProjectPopularity(input, cfg.opts))
		if err != nil {
			return nil, err
		}
		row := AblationRow{Name: cfg.name, Runtime: res.Runtime}
		out = append(out, row)
		rows = append(rows, []string{row.Name, fmt.Sprintf("%.4f", res.Runtime)})
	}
	r.printPoints("Ablation: measured vs analytic cost model",
		[]string{"Configuration", "Runtime(s)"}, rows)
	return out, nil
}

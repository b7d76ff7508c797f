package harness

import (
	"fmt"
	"math"
	"sort"

	"approxhadoop/internal/approx"
	"approxhadoop/internal/apps"
	"approxhadoop/internal/cluster"
	"approxhadoop/internal/dfs"
	"approxhadoop/internal/mapreduce"
	"approxhadoop/internal/plot"
	"approxhadoop/internal/workload"
)

// ---------------------------------------------------------------------------
// Inputs (scaled by Config.Scale)
// ---------------------------------------------------------------------------

// input generates dataset d at the configured scale.
func (r *Runner) input(d apps.Dataset) *dfs.File { return d.File(r.cfg.Scale, r.cfg.Seed) }

// ---------------------------------------------------------------------------
// Table 1: application inventory
// ---------------------------------------------------------------------------

// Table1 prints the Table 1 rows of the catalog's batch applications
// and returns them; it runs nothing (TestCatalogEveryEntryRuns runs
// every entry).
func (r *Runner) Table1() ([]apps.Spec, error) {
	var specs []apps.Spec
	for _, e := range apps.Catalog {
		if e.Batch != nil {
			specs = append(specs, e.Row)
		}
	}
	rows := make([][]string, 0, len(specs))
	for _, s := range specs {
		mech := ""
		if s.Sampling {
			mech += "S"
		}
		if s.Dropping {
			mech += "D"
		}
		if s.UserDefined {
			mech += "U"
		}
		rows = append(rows, []string{s.Name, s.Domain, s.Input, mech, s.ErrEst})
	}
	r.printPoints("Table 1: applications",
		[]string{"Application", "Domain", "Input", "Approx", "ErrEst"}, rows)
	return specs, nil
}

// ---------------------------------------------------------------------------
// Table 2: access-log sizes per period
// ---------------------------------------------------------------------------

// Table2Row is one period of the scaling dataset.
type Table2Row struct {
	Days     int
	Accesses int64
	GB       float64 // modeled uncompressed size
	Maps     int
}

// ScalingPeriods mirrors the paper's Table 2 periods in days.
func ScalingPeriods() []int { return []int{1, 2, 5, 7, 10, 14, 30, 91, 182, 365} }

const (
	blocksPerDay  = 18 // scaled-down analog of the paper's ~18 maps/day (6,500/year)
	bytesPerEntry = 32
)

// Table2 prints the scaling-series dataset descriptors.
func (r *Runner) Table2() ([]Table2Row, error) {
	lines := r.scaleN(1000)
	var out []Table2Row
	rows := [][]string{}
	for _, days := range ScalingPeriods() {
		cfg := workload.ScaledAccessLog(days, blocksPerDay, lines, r.cfg.Seed)
		row := Table2Row{
			Days:     days,
			Accesses: int64(cfg.Blocks) * int64(cfg.LinesPerBlock),
			GB:       float64(cfg.Blocks) * float64(cfg.LinesPerBlock) * bytesPerEntry / 1e9,
			Maps:     cfg.Blocks,
		}
		out = append(out, row)
		rows = append(rows, []string{
			fmt.Sprintf("%d days", days),
			fmt.Sprintf("%d", row.Accesses),
			fmt.Sprintf("%.3f", row.GB),
			fmt.Sprintf("%d", row.Maps),
		})
	}
	r.printPoints("Table 2: access-log sizes",
		[]string{"Period", "Accesses", "GB (uncompressed model)", "#Maps"}, rows)
	return out, nil
}

// ---------------------------------------------------------------------------
// Figure 5: result distributions with CI bars
// ---------------------------------------------------------------------------

// Fig5Row is one plotted key of a Figure 5 panel.
type Fig5Row struct {
	Key     string
	Precise float64
	Approx  float64
	CI      float64 // 95% half-width
}

// fig5Panel runs an app precise and sampled and returns the heaviest
// keys with their estimates.
func (r *Runner) fig5Panel(build func(apps.Options) *mapreduce.Job, ratio float64, topN int) ([]Fig5Row, error) {
	precise, err := r.runJob(build(r.opts(nil, 0, false)))
	if err != nil {
		return nil, err
	}
	apx, err := r.runJob(build(r.opts(approx.NewStatic(ratio, 0), 0, false)))
	if err != nil {
		return nil, err
	}
	keys := append([]mapreduce.KeyEstimate(nil), precise.Outputs...)
	sort.Slice(keys, func(i, j int) bool { return keys[i].Est.Value > keys[j].Est.Value })
	if len(keys) > topN {
		keys = keys[:topN]
	}
	var rows []Fig5Row
	for _, k := range keys {
		row := Fig5Row{Key: k.Key, Precise: k.Est.Value}
		if a, ok := apx.Output(k.Key); ok {
			row.Approx = a.Est.Value
			row.CI = a.Est.Err
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// Fig5 regenerates the four panels of Figure 5.
func (r *Runner) Fig5() (map[string][]Fig5Row, error) {
	wiki := r.input(apps.WikiDump)
	logf := r.input(apps.AccessLog)
	panels := []struct {
		name  string
		build func(apps.Options) *mapreduce.Job
		ratio float64
	}{
		{"5a WikiLength (10% sampling)", func(o apps.Options) *mapreduce.Job { return apps.WikiLength(wiki, o) }, 0.1},
		{"5b WikiPageRank (10% sampling)", func(o apps.Options) *mapreduce.Job { return apps.WikiPageRank(wiki, o) }, 0.1},
		{"5c ProjectPopularity (1% sampling)", func(o apps.Options) *mapreduce.Job { return apps.ProjectPopularity(logf, o) }, 0.01},
		{"5d PagePopularity (1% sampling)", func(o apps.Options) *mapreduce.Job { return apps.PagePopularity(logf, o) }, 0.01},
	}
	// Panels are independent job pairs; simulate them concurrently and
	// print in panel order.
	panelRows := make([][]Fig5Row, len(panels))
	if err := r.parallelMap(len(panels), func(i int) error {
		rows, err := r.fig5Panel(panels[i].build, panels[i].ratio, 10)
		if err != nil {
			return fmt.Errorf("%s: %w", panels[i].name, err)
		}
		panelRows[i] = rows
		return nil
	}); err != nil {
		return nil, err
	}
	out := map[string][]Fig5Row{}
	for i, p := range panels {
		rows := panelRows[i]
		out[p.name] = rows
		printed := [][]string{}
		for _, row := range rows {
			printed = append(printed, []string{
				row.Key, f1(row.Precise),
				fmt.Sprintf("%.1f ± %.1f", row.Approx, row.CI),
			})
		}
		r.printPoints("Figure "+p.name, []string{"Key", "Precise", "Approximate (95% CI)"}, printed)
	}
	return out, nil
}

// ---------------------------------------------------------------------------
// Figures 6, 7, 11: dropping/sampling sweeps
// ---------------------------------------------------------------------------

// SweepRatios are the input-sampling ratios on the sweep x-axis.
var SweepRatios = []float64{1, 0.5, 0.25, 0.1, 0.05, 0.01}

// SweepDrops are the task-dropping ratios (one panel per value).
var SweepDrops = []float64{0, 0.25, 0.5}

// sweep runs the standard dropping x sampling grid for one app.
func (r *Runner) sweep(title string, build func(apps.Options) *mapreduce.Job) ([]Point, error) {
	// Per-rep precise baselines (the data is identical across reps;
	// one baseline suffices, but we honor the seeds used by reps).
	precise := make([]*mapreduce.Result, 1)
	p, err := r.runJob(build(r.opts(nil, 0, false)))
	if err != nil {
		return nil, err
	}
	precise[0] = p
	// Enumerate the grid, then simulate every cell concurrently: cell
	// results land in indexed slots and render in grid order, so the
	// table is identical to a sequential sweep.
	type cell struct{ drop, ratio float64 }
	var cells []cell
	for _, drop := range SweepDrops {
		for _, ratio := range SweepRatios {
			//lint:ignore nofloateq sweep values are exact literals from SweepDrops/SweepRatios, never computed
			if drop == 0 && ratio == 1 {
				continue // that's the precise row
			}
			cells = append(cells, cell{drop, ratio})
		}
	}
	points := make([]Point, len(cells))
	if err := r.parallelMap(len(cells), func(i int) error {
		c := cells[i]
		pt, err := r.repeat(func(rep int) (*mapreduce.Job, error) {
			return build(r.opts(approx.NewStatic(c.ratio, c.drop), rep, false)), nil
		}, precise)
		if err != nil {
			return err
		}
		pt.Drop = c.drop
		pt.Sample = c.ratio
		pt.Label = fmt.Sprintf("drop=%.0f%% sample=%.0f%%", c.drop*100, c.ratio*100)
		points[i] = pt
		return nil
	}); err != nil {
		return nil, err
	}
	rows := [][]string{{"precise", "-", f1(p.Runtime), f1(p.Runtime), f1(p.Runtime), "0%", "0%", f1(p.EnergyWh)}}
	for i, pt := range points {
		rows = append(rows, []string{
			fmt.Sprintf("drop=%.0f%%", cells[i].drop*100),
			fmt.Sprintf("%.0f%%", cells[i].ratio*100),
			f1(pt.Runtime), f1(pt.RunMin), f1(pt.RunMax),
			pct(pt.ActualPct), pct(pt.CIPct), f1(pt.EnergyWh),
		})
	}
	r.printPoints(title,
		[]string{"Dropping", "Sampling", "Runtime(s)", "min", "max", "ActualErr", "95%CI", "Energy(Wh)"},
		rows)
	r.plotSweep(title, points)
	return points, nil
}

// plotSweep renders runtime and CI charts for a dropping/sampling grid.
func (r *Runner) plotSweep(title string, points []Point) {
	runtime := plot.New(title+" — runtime", "sampling ratio", "simulated s")
	ci := plot.New(title+" — 95% CI", "sampling ratio", "percent")
	for _, drop := range SweepDrops {
		var xs, rys, cys []float64
		for _, p := range points {
			//lint:ignore nofloateq grouping by the exact sweep literal the point was built from
			if p.Drop == drop {
				xs = append(xs, p.Sample)
				rys = append(rys, p.Runtime)
				cys = append(cys, p.CIPct)
			}
		}
		name := fmt.Sprintf("drop=%.0f%%", drop*100)
		runtime.Add(name, xs, rys)
		ci.Add(name, xs, cys)
	}
	fmt.Fprintln(r.out)
	runtime.Render(r.out)
	fmt.Fprintln(r.out)
	ci.Render(r.out)
}

// Fig6 regenerates the WikiLength performance/accuracy sweep.
func (r *Runner) Fig6() ([]Point, error) {
	input := r.input(apps.WikiDump)
	return r.sweep("Figure 6: WikiLength dropping/sampling sweep",
		func(o apps.Options) *mapreduce.Job { return apps.WikiLength(input, o) })
}

// Fig7 regenerates the Project Popularity sweep.
func (r *Runner) Fig7() ([]Point, error) {
	input := r.input(apps.AccessLog)
	return r.sweep("Figure 7: ProjectPopularity dropping/sampling sweep",
		func(o apps.Options) *mapreduce.Job { return apps.ProjectPopularity(input, o) })
}

// Fig11 regenerates the web-server log sweeps (request rate and attack
// frequencies).
func (r *Runner) Fig11() (map[string][]Point, error) {
	input := r.input(apps.WebLog)
	out := map[string][]Point{}
	rate, err := r.sweep("Figure 11a: RequestRate (web) sweep",
		func(o apps.Options) *mapreduce.Job { return apps.WebRequestRate(input, o) })
	if err != nil {
		return nil, err
	}
	out["11a RequestRate"] = rate
	attacks, err := r.sweep("Figure 11b: AttackFrequencies sweep",
		func(o apps.Options) *mapreduce.Job { return apps.AttackFrequencies(input, o) })
	if err != nil {
		return nil, err
	}
	out["11b AttackFrequencies"] = attacks
	return out, nil
}

// ---------------------------------------------------------------------------
// Figure 8: DC placement vs executed maps
// ---------------------------------------------------------------------------

// dcCluster mirrors the paper's Fig 8 setup: 4 map slots per server.
func (r *Runner) dcCluster() cluster.Config {
	cfg := r.cfg.Cluster
	cfg.MapSlotsPerServer = 4
	return cfg
}

// dcCost charges the compute-bound annealing maps paper-scale
// durations (the paper's Fig 8 jobs run ~1,000-1,500 s): one search
// per map task, so the fixed term carries the whole cost.
func (r *Runner) dcCost() cluster.AnalyticCost {
	return cluster.AnalyticCost{T0: 600, Tr: 0, Tp: 0, RedPerK: 0.02}
}

// Fig8 regenerates the DC-placement dropping sweep (80 maps).
func (r *Runner) Fig8() ([]Point, error) {
	input := workload.SearchSeeds("dc-seeds", 80, r.cfg.Seed)
	cfg := apps.DCPlacementConfig{Iters: r.scaleN(1500)}
	runDC := func(ctl mapreduce.Controller, rep int) (*mapreduce.Result, error) {
		opts := r.opts(ctl, rep, false)
		opts.Cost = r.dcCost()
		return r.runJobOn(r.dcCluster(), apps.DCPlacement(input, cfg, opts))
	}
	precise, err := runDC(nil, 0)
	if err != nil {
		return nil, err
	}
	pMin := precise.Outputs[0].Est.Value
	execs := []float64{0.875, 0.75, 0.625, 0.5, 0.375, 0.25}
	// Simulate every (executed-fraction, rep) combination concurrently,
	// then fold per cell in rep order.
	results := make([]*mapreduce.Result, len(execs)*r.cfg.Reps)
	if err := r.parallelMap(len(results), func(k int) error {
		exec, rep := execs[k/r.cfg.Reps], k%r.cfg.Reps
		res, err := runDC(approx.NewStatic(1, 1-exec), rep)
		if err != nil {
			return err
		}
		results[k] = res
		return nil
	}); err != nil {
		return nil, err
	}
	var points []Point
	rows := [][]string{{"100%", f1(precise.Runtime), "0%", "0%"}}
	for i, exec := range execs {
		var pt Point
		pt.RunMin, pt.RunMax = math.Inf(1), math.Inf(-1)
		for rep := 0; rep < r.cfg.Reps; rep++ {
			res := results[i*r.cfg.Reps+rep]
			pt.Runtime += res.Runtime
			est := res.Outputs[0].Est
			pt.ActualPct += math.Abs(est.Value-pMin) / pMin * 100
			ci := est.RelErr() * 100
			if !math.IsInf(ci, 1) {
				pt.CIPct += ci
			}
			pt.MapsRun += float64(res.Counters.MapsCompleted)
			if res.Runtime < pt.RunMin {
				pt.RunMin = res.Runtime
			}
			if res.Runtime > pt.RunMax {
				pt.RunMax = res.Runtime
			}
		}
		n := float64(r.cfg.Reps)
		pt.Runtime /= n
		pt.ActualPct /= n
		pt.CIPct /= n
		pt.MapsRun /= n
		pt.Drop = 1 - exec
		pt.Label = fmt.Sprintf("executed=%.1f%%", exec*100)
		points = append(points, pt)
		rows = append(rows, []string{
			fmt.Sprintf("%.1f%%", exec*100), f1(pt.Runtime),
			pct(pt.ActualPct), pct(pt.CIPct),
		})
	}
	r.printPoints("Figure 8: DCPlacement vs executed maps (50ms constraint)",
		[]string{"Executed maps", "Runtime(s)", "ActualErr", "95%CI"}, rows)
	return points, nil
}

// ---------------------------------------------------------------------------
// Figure 9: target error bounds
// ---------------------------------------------------------------------------

// TargetSweep are the target error bounds for Figures 9a/9b.
var TargetSweep = []float64{0.0005, 0.001, 0.0025, 0.005, 0.01, 0.02, 0.05}

// targetSweep runs an app across target bounds with a controller
// factory.
func (r *Runner) targetSweep(title string, build func(apps.Options) *mapreduce.Job,
	mkCtl func(target float64) mapreduce.Controller, targets []float64) ([]Point, error) {
	precise, err := r.runJob(build(r.opts(nil, 0, false)))
	if err != nil {
		return nil, err
	}
	// Every target bound simulates concurrently; results fold back in
	// target order.
	points := make([]Point, len(targets))
	if err := r.parallelMap(len(targets), func(i int) error {
		target := targets[i]
		pt, err := r.repeat(func(rep int) (*mapreduce.Job, error) {
			return build(r.opts(mkCtl(target), rep, false)), nil
		}, []*mapreduce.Result{precise})
		if err != nil {
			return err
		}
		pt.Target = target
		pt.Label = fmt.Sprintf("target=%.2f%%", target*100)
		points[i] = pt
		return nil
	}); err != nil {
		return nil, err
	}
	rows := [][]string{{"precise", f1(precise.Runtime), "0%", "0%", "-"}}
	for _, pt := range points {
		rows = append(rows, []string{
			fmt.Sprintf("%.2f%%", pt.Target*100), f1(pt.Runtime),
			pct(pt.ActualPct), pct(pt.CIPct), f1(pt.MapsRun),
		})
	}
	r.printPoints(title,
		[]string{"Target err", "Runtime(s)", "ActualErr", "95%CI", "MapsRun"}, rows)
	chart := plot.New(title+" — runtime vs target", "target error (%)", "simulated s")
	var xs, ys, cs []float64
	for _, p := range points {
		xs = append(xs, p.Target*100)
		ys = append(ys, p.Runtime)
		cs = append(cs, p.CIPct)
	}
	chart.Add("runtime", xs, ys)
	fmt.Fprintln(r.out)
	chart.Render(r.out)
	bound := plot.New(title+" — achieved bound", "target error (%)", "95% CI (%)")
	bound.Add("achieved", xs, cs).Add("target=x", xs, xs)
	fmt.Fprintln(r.out)
	bound.Render(r.out)
	return points, nil
}

// Fig9a regenerates the Project Popularity target-error sweep.
func (r *Runner) Fig9a() ([]Point, error) {
	input := r.input(apps.AccessLog)
	return r.targetSweep("Figure 9a: ProjectPopularity target error",
		func(o apps.Options) *mapreduce.Job { return apps.ProjectPopularity(input, o) },
		func(t float64) mapreduce.Controller { return &approx.TargetError{Target: t} },
		TargetSweep)
}

// Fig9b regenerates the Page Popularity target-error sweep with a
// pilot wave at 1% sampling.
func (r *Runner) Fig9b() ([]Point, error) {
	input := r.input(apps.AccessLog)
	return r.targetSweep("Figure 9b: PagePopularity target error (pilot wave @1%)",
		func(o apps.Options) *mapreduce.Job { return apps.PagePopularity(input, o) },
		func(t float64) mapreduce.Controller {
			return &approx.TargetError{Target: t, Pilot: true, PilotRatio: 0.01}
		},
		[]float64{0.002, 0.005, 0.01, 0.02, 0.05})
}

// Fig9c regenerates the DC-placement target-error sweep (320 maps).
func (r *Runner) Fig9c() ([]Point, error) {
	input := workload.SearchSeeds("dc-seeds-320", 320, r.cfg.Seed)
	cfg := apps.DCPlacementConfig{Iters: r.scaleN(1500)}
	saveCluster := r.cfg.Cluster
	saveCost := r.cfg.Cost
	r.cfg.Cluster = r.dcCluster()
	r.cfg.Cost = r.dcCost()
	defer func() { r.cfg.Cluster = saveCluster; r.cfg.Cost = saveCost }()
	return r.targetSweep("Figure 9c: DCPlacement target error (GEV)",
		func(o apps.Options) *mapreduce.Job { return apps.DCPlacement(input, cfg, o) },
		func(t float64) mapreduce.Controller { return &approx.TargetErrorGEV{Target: t} },
		[]float64{0.01, 0.02, 0.04, 0.06, 0.08, 0.1})
}

// ---------------------------------------------------------------------------
// Figure 10: web-server log results
// ---------------------------------------------------------------------------

// Fig10 regenerates the web-log panels: hourly request rates (weekly
// shape), rates in descending order, and attack frequencies.
func (r *Runner) Fig10() (map[string][]Fig5Row, error) {
	input := r.input(apps.WebLog)
	out := map[string][]Fig5Row{}

	// 10a/10b: request rate per hour of the week, precise vs sampled.
	precise, err := r.runJob(apps.WebRequestRate(input, r.opts(nil, 0, false)))
	if err != nil {
		return nil, err
	}
	apx, err := r.runJob(apps.WebRequestRate(input, r.opts(approx.NewStatic(0.1, 0), 0, false)))
	if err != nil {
		return nil, err
	}
	var hours []Fig5Row
	for _, o := range precise.Outputs {
		row := Fig5Row{Key: o.Key, Precise: o.Est.Value}
		if a, ok := apx.Output(o.Key); ok {
			row.Approx = a.Est.Value
			row.CI = a.Est.Err
		}
		hours = append(hours, row)
	}
	out["10a RequestRate by hour"] = hours
	desc := append([]Fig5Row(nil), hours...)
	sort.Slice(desc, func(i, j int) bool { return desc[i].Precise > desc[j].Precise })
	out["10b RequestRate descending"] = desc

	// 10c: attack frequencies, precise vs sampled.
	pAtt, err := r.runJob(apps.AttackFrequencies(input, r.opts(nil, 0, false)))
	if err != nil {
		return nil, err
	}
	aAtt, err := r.runJob(apps.AttackFrequencies(input, r.opts(approx.NewStatic(0.1, 0), 0, false)))
	if err != nil {
		return nil, err
	}
	var att []Fig5Row
	for _, o := range pAtt.Outputs {
		row := Fig5Row{Key: o.Key, Precise: o.Est.Value}
		if a, ok := aAtt.Output(o.Key); ok {
			row.Approx = a.Est.Value
			row.CI = a.Est.Err
		}
		att = append(att, row)
	}
	sort.Slice(att, func(i, j int) bool { return att[i].Precise > att[j].Precise })
	out["10c AttackFrequencies"] = att

	names := make([]string, 0, len(out))
	for name := range out {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		rows := out[name]
		printed := [][]string{}
		limit := len(rows)
		if limit > 12 {
			limit = 12
		}
		for _, row := range rows[:limit] {
			printed = append(printed, []string{row.Key, f1(row.Precise),
				fmt.Sprintf("%.1f ± %.1f", row.Approx, row.CI)})
		}
		r.printPoints("Figure "+name, []string{"Key", "Precise", "Approx (95% CI)"}, printed)
	}
	return out, nil
}

// ---------------------------------------------------------------------------
// Figure 12: energy with S3
// ---------------------------------------------------------------------------

// Fig12 regenerates the energy experiment: single-wave web-log jobs
// where dropping maps cannot shorten runtime but still saves energy by
// letting idle servers sleep (S3). Reduce tasks are concentrated on two
// servers — with one reduce per server (the other experiments' layout)
// no server could ever enter S3.
func (r *Runner) Fig12() (map[string][]Point, error) {
	input := r.input(apps.WebLog) // 80 blocks over 80 slots: one wave
	out := map[string][]Point{}
	for _, app := range []struct {
		name  string
		build func(apps.Options) *mapreduce.Job
	}{
		{"12a RequestRate", func(o apps.Options) *mapreduce.Job { return apps.WebRequestRate(input, o) }},
		{"12b AttackFrequencies", func(o apps.Options) *mapreduce.Job { return apps.AttackFrequencies(input, o) }},
	} {
		var points []Point
		rows := [][]string{}
		for _, mapsPct := range []float64{1, 0.75, 0.5, 0.25} {
			for _, ratio := range []float64{1, 0.5, 0.25, 0.1, 0.01} {
				var ctl mapreduce.Controller
				if mapsPct < 1 || ratio < 1 {
					ctl = approx.NewStatic(ratio, 1-mapsPct)
				}
				pt, err := r.repeat(func(rep int) (*mapreduce.Job, error) {
					job := app.build(r.opts(ctl, rep, true))
					job.Reduces = 2
					return job, nil
				}, nil)
				if err != nil {
					return nil, err
				}
				pt.Drop = 1 - mapsPct
				pt.Sample = ratio
				pt.Label = fmt.Sprintf("maps=%.0f%% sample=%.0f%%", mapsPct*100, ratio*100)
				points = append(points, pt)
				rows = append(rows, []string{
					fmt.Sprintf("%.0f%%", mapsPct*100),
					fmt.Sprintf("%.0f%%", ratio*100),
					f2(pt.EnergyWh), f1(pt.Runtime),
				})
			}
		}
		out[app.name] = points
		r.printPoints("Figure "+app.name+" energy (S3 enabled)",
			[]string{"Maps", "Sampling", "Energy(Wh)", "Runtime(s)"}, rows)
		var labels []string
		var values []float64
		for _, p := range points {
			//lint:ignore nofloateq selecting the exact sweep literal 1 (full sampling), never a computed value
			if p.Sample == 1 {
				labels = append(labels, fmt.Sprintf("maps=%.0f%%", (1-p.Drop)*100))
				values = append(values, p.EnergyWh)
			}
		}
		fmt.Fprintln(r.out)
		plot.Bars(r.out, "Figure "+app.name+" — energy at 100% sampling (dropping + S3)", labels, values, " Wh")
	}
	return out, nil
}

// ---------------------------------------------------------------------------
// Figure 13: input-size scaling
// ---------------------------------------------------------------------------

// Fig13Row is one period of the scaling experiment.
type Fig13Row struct {
	Days        int
	PreciseSecs float64
	ApproxSecs  float64
	Speedup     float64
	ApproxCI    float64 // percent
	MapsRun     int
	PagePrecise float64
	PageApprox  float64
	PageSpeedup float64
}

// Fig13 regenerates the scaling experiment on the Atom-like cluster:
// Project and Page Popularity, precise vs 1% target error, across
// Table 2 periods. Periods may be restricted for cheap runs.
func (r *Runner) Fig13(periods []int) ([]Fig13Row, error) {
	if len(periods) == 0 {
		periods = ScalingPeriods()
	}
	atom := cluster.AtomConfig()
	lines := r.scaleN(1000)
	// Periods are independent; simulate them concurrently (each period
	// still runs its four jobs in sequence so precise/approx pairs stay
	// together) and report in period order.
	out := make([]Fig13Row, len(periods))
	if err := r.parallelMap(len(periods), func(i int) error {
		days := periods[i]
		input := workload.ScaledAccessLog(days, blocksPerDay, lines, r.cfg.Seed).File(
			fmt.Sprintf("log-%dd", days))
		run := func(ctl mapreduce.Controller, build func(*dfs.File, apps.Options) *mapreduce.Job) (*mapreduce.Result, error) {
			return r.runJobOn(atom, build(input, r.opts(ctl, 0, false)))
		}
		precise, err := run(nil, apps.ProjectPopularity)
		if err != nil {
			return err
		}
		apx, err := run(&approx.TargetError{Target: 0.01}, apps.ProjectPopularity)
		if err != nil {
			return err
		}
		pagePrecise, err := run(nil, apps.PagePopularity)
		if err != nil {
			return err
		}
		pageApx, err := run(&approx.TargetError{Target: 0.01, Pilot: true, PilotRatio: 0.01},
			apps.PagePopularity)
		if err != nil {
			return err
		}
		approxCI := 0.0
		if worst, ok := WorstKey(apx); ok {
			approxCI = worst.Est.RelErr() * 100
		}
		out[i] = Fig13Row{
			Days:        days,
			PreciseSecs: precise.Runtime,
			ApproxSecs:  apx.Runtime,
			Speedup:     precise.Runtime / apx.Runtime,
			ApproxCI:    approxCI,
			MapsRun:     apx.Counters.MapsCompleted,
			PagePrecise: pagePrecise.Runtime,
			PageApprox:  pageApx.Runtime,
			PageSpeedup: pagePrecise.Runtime / pageApx.Runtime,
		}
		return nil
	}); err != nil {
		return nil, err
	}
	rows := [][]string{}
	for _, row := range out {
		rows = append(rows, []string{
			fmt.Sprintf("%d days", row.Days),
			f1(row.PreciseSecs), f1(row.ApproxSecs), f2(row.Speedup) + "x",
			pct(row.ApproxCI),
			f1(row.PagePrecise), f1(row.PageApprox), f2(row.PageSpeedup) + "x",
		})
	}
	r.printPoints("Figure 13: scaling with input size (1% target error)",
		[]string{"Period", "ProjPop precise(s)", "approx(s)", "speedup", "CI",
			"PagePop precise(s)", "approx(s)", "speedup"}, rows)
	chart := plot.New("Figure 13 — runtime vs input size", "days of log", "simulated s")
	var xs, pys, ays []float64
	for _, row := range out {
		xs = append(xs, float64(row.Days))
		pys = append(pys, row.PreciseSecs)
		ays = append(ays, row.ApproxSecs)
	}
	chart.Add("precise", xs, pys).Add("1% target", xs, ays)
	fmt.Fprintln(r.out)
	chart.Render(r.out)
	return out, nil
}

// ---------------------------------------------------------------------------
// User-defined approximation (technical report)
// ---------------------------------------------------------------------------

// UserDefRow reports one user-defined-approximation configuration.
type UserDefRow struct {
	App      string
	Variant  string
	Runtime  float64
	RealSecs float64
	Quality  float64 // app-defined quality metric
}

// UserDefined runs the K-Means and video-encoding user-defined
// approximation studies.
func (r *Runner) UserDefined() ([]UserDefRow, error) {
	var out []UserDefRow
	rows := [][]string{}

	// Video encoding: quality = mean frame quality score. The encoder
	// kernel is genuinely compute-bound, so the measured cost model
	// (scaled to cluster-like seconds) drives the virtual runtime.
	udCost := cluster.MeasuredCost{Scale: 2000}
	video := apps.Frames.File(r.cfg.Scale, r.cfg.Seed)
	for _, v := range []struct {
		name  string
		ratio float64
	}{{"precise", 0}, {"approx-50%", 0.5}, {"approx-100%", 1}} {
		opts := r.opts(nil, 0, false)
		opts.Cost = udCost
		res, err := r.runJob(apps.VideoEncoding(video,
			apps.VideoEncodingConfig{ApproxRatio: v.ratio}, opts))
		if err != nil {
			return nil, err
		}
		q, _ := res.Output("quality")
		f, _ := res.Output("frames")
		row := UserDefRow{App: "VideoEncoding", Variant: v.name,
			Runtime: res.Runtime, RealSecs: res.RealSecs,
			Quality: q.Est.Value / f.Est.Value}
		out = append(out, row)
		rows = append(rows, []string{row.App, row.Variant, f1(row.Runtime),
			fmt.Sprintf("%.3f", row.RealSecs), f2(row.Quality)})
	}

	// K-Means: quality = centroid shift vs the precise iteration.
	points := apps.Points.File(r.cfg.Scale, r.cfg.Seed)
	base := apps.KMeansConfig{Centroids: [][2]float64{{2, 2}, {12, 2}, {2, 12}, {12, 12}}}
	udOpts := r.opts(nil, 0, false)
	udOpts.Cost = udCost
	pRes, err := r.runJob(apps.KMeansIteration(points, base, udOpts))
	if err != nil {
		return nil, err
	}
	pCent := apps.CentroidsFromResult(pRes, 4)
	out = append(out, UserDefRow{App: "KMeans", Variant: "precise",
		Runtime: pRes.Runtime, RealSecs: pRes.RealSecs, Quality: 0})
	rows = append(rows, []string{"KMeans", "precise", f1(pRes.Runtime),
		fmt.Sprintf("%.3f", pRes.RealSecs), "0.00"})
	for _, ratio := range []float64{0.5, 1} {
		cfg := base
		cfg.ApproxRatio = ratio
		res, err := r.runJob(apps.KMeansIteration(points, cfg, udOpts))
		if err != nil {
			return nil, err
		}
		shift := apps.CentroidShift(pCent, apps.CentroidsFromResult(res, 4))
		row := UserDefRow{App: "KMeans", Variant: fmt.Sprintf("approx-%.0f%%", ratio*100),
			Runtime: res.Runtime, RealSecs: res.RealSecs, Quality: shift}
		out = append(out, row)
		rows = append(rows, []string{row.App, row.Variant, f1(row.Runtime),
			fmt.Sprintf("%.3f", row.RealSecs), f3(row.Quality)})
	}
	r.printPoints("User-defined approximation (TR)",
		[]string{"App", "Variant", "Runtime(s)", "RealCompute(s)", "Quality/Shift"}, rows)
	return out, nil
}

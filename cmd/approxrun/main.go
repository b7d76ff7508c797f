// Command approxrun executes a single catalog application (apps.Catalog)
// with either user-specified dropping/sampling ratios or a target error
// bound, and prints the top output keys with their confidence intervals
// alongside runtime/energy. A stream scenario runs its continuous query
// instead and prints one estimate per window.
//
// Usage:
//
//	approxrun -app project-popularity -sample 0.1 -drop 0.25
//	approxrun -app page-popularity -target 0.01 -pilot
//	approxrun -app dc-placement -target 0.05   # GEV bounds: Table 1 says so
//	approxrun -app wiki-length                 # precise
//	approxrun -app project-popularity -sample 0.1 -faults 8 -max-attempts 3 -degrade-to-drop
//	approxrun -app page-popularity -sample 0.25 -trace events.jsonl
//	approxrun -app wiki-distinct-editors -sketch   # sketch-compressed shuffle
//	approxrun -app wiki-top-pages -sketch
//	approxrun -app web-bytes -window 10 -slo-err 0.05 -windows 20
//	approxrun -app edit-rate -window 6 -slo-latency 0.05 -format tsv
//
// Apps (an unknown name exits 2 and lists them): wiki-length
// wiki-page-rank wiki-request-rate project-popularity page-popularity
// page-traffic total-size request-size clients client-browser
// web-request-rate attack-frequencies avg-bytes-per-link dc-placement
// video-encoding kmeans wiki-distinct-editors wiki-top-pages
// wiki-editor-membership, and the stream scenarios edit-rate web-bytes.
//
// The three wiki-* sketch apps are the sketch-plane scenarios: without
// -sketch they run the exact composite-pairs representation, with it
// the map output collapses to one sketch per (partition, group). The
// shuffle-bytes counter printed after the run shows the difference.
// video-encoding and kmeans are user-defined approximations: -drop sets
// the fraction of their map tasks that run the approximate variant.
//
// The stream scenarios replay the app's workload file as a live,
// diurnally paced stream and the continuous query emits one estimate
// per event-time window. The window series is deterministic for a
// fixed (-app, -seed, rate flags); a stream runs on two goroutines
// whatever -workers says, so -workers is accepted and does nothing here. -format tsv prints the
// canonical byte-stable series for CI diffs across runs.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"

	"approxhadoop/internal/approx"
	"approxhadoop/internal/apps"
	"approxhadoop/internal/cluster"
	"approxhadoop/internal/mapreduce"
	"approxhadoop/internal/stream"
	"approxhadoop/internal/workload"
)

func main() {
	var (
		app    = flag.String("app", "project-popularity", "catalog application to run")
		sample = flag.Float64("sample", 1, "input data sampling ratio (0,1]")
		drop   = flag.Float64("drop", 0, "map task dropping ratio [0,1)")
		target = flag.Float64("target", 0, "target relative error bound (0 disables)")
		pilot  = flag.Bool("pilot", false, "bootstrap the target-error controller with a pilot wave")
		scale  = flag.Float64("scale", 1, "dataset scale multiplier")
		seed   = flag.Int64("seed", 42, "random seed")
		topN   = flag.Int("top", 15, "output keys to print")
		format = flag.String("format", "text", "output format: text | tsv | json")

		faults      = flag.Int("faults", 0, "inject N random faults (task faults, fail-stops, slowdowns, rack failures) seeded by -seed")
		maxAttempts = flag.Int("max-attempts", 0, "cap attempts per map task (0 = unlimited retries)")
		degrade     = flag.Bool("degrade-to-drop", false, "fold unrecoverable task failures into the estimator's dropped-cluster count instead of failing")

		sketch = flag.Bool("sketch", false, "use the sketch-compressed map-output representation (sketch-plane apps only)")

		window     = flag.Float64("window", 10, "stream: event-time window size in virtual seconds")
		slide      = flag.Float64("slide", 0, "stream: window slide in virtual seconds (0 = tumbling)")
		sloErr     = flag.Float64("slo-err", 0, "stream: target per-window relative error at 95% confidence (0 disables)")
		sloLatency = flag.Float64("slo-latency", 0, "stream: per-window modeled latency budget in seconds (0 disables)")
		windows    = flag.Int("windows", 12, "stream: stop after N windows (0 = drain the source)")
		rate       = flag.Float64("rate", 400, "stream: base arrival rate, records per virtual second")
		swing      = flag.Float64("swing", 0.5, "stream: diurnal rate swing in [0,1) (0.5 = 3x trough-to-peak)")
		period     = flag.Float64("period", 120, "stream: diurnal period in virtual seconds")

		trace      = flag.String("trace", "", "write the job's scheduling-event log as JSONL to this file (\"-\" for stdout)")
		workers    = flag.Int("workers", 0, "map-compute worker pool size (0 = GOMAXPROCS, 1 = inline); results are identical for any value")
		cpuprofile = flag.String("cpuprofile", "", "write a pprof CPU profile to this file")
		memprofile = flag.String("memprofile", "", "write a pprof heap profile to this file on exit")
	)
	flag.Parse()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fatal(1, err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(1, fmt.Errorf("cpuprofile: %w", err))
		}
		defer pprof.StopCPUProfile()
	}

	e, ok := apps.Lookup(*app)
	if !ok {
		fatal(2, fmt.Errorf("unknown app %q (have: %v)", *app, apps.Names(nil)))
	}
	input := e.Dataset.File(*scale, *seed)

	if e.Stream != nil {
		var rf workload.RateFunc
		if *swing > 0 {
			rf = workload.DiurnalRate(*rate, *swing, *period)
		} else {
			rf = workload.ConstantRate(*rate)
		}
		p := e.Stream(input, apps.StreamOptions{
			Seed:       *seed,
			Rate:       rf,
			Window:     stream.Window{Size: *window, Slide: *slide},
			SLO:        stream.SLO{TargetRelErr: *sloErr, MaxLatency: *sloLatency},
			MaxWindows: *windows,
		})
		series, err := p.Run()
		if err != nil {
			fatal(1, err)
		}
		if *format == "tsv" {
			if err := stream.WriteSeries(os.Stdout, series); err != nil {
				fatal(1, err)
			}
			return
		}
		fmt.Printf("%s: %d windows of %gs (slide %gs)\n\n", *app, len(series), *window, p.Query.Window.Slide)
		for _, r := range series {
			tag := ""
			switch {
			case r.Exact:
				tag = " exact"
			case r.Degraded:
				tag = fmt.Sprintf(" keep=%.2f", r.Plan.KeepFrac)
			}
			if r.Partial {
				tag += " partial"
			}
			fmt.Printf("[%6.1f,%6.1f) %-8s %14.1f ± %-12.1f  n=%-6d f=%.3f lat=%.3fs%s\n",
				r.Start, r.End, p.Query.Op.String(), r.Est.Value, r.Est.Err,
				r.Records, r.Ratio(), r.Latency, tag)
		}
		return
	}

	set, err := approx.Approximation{
		SampleRatio: *sample,
		DropRatio:   *drop,
		TargetError: *target,
		Pilot:       *pilot,
		Extreme:     e.Row.ErrEst == "GEV",
	}.Settings()
	if err != nil {
		fatal(2, err)
	}
	opts := apps.Options{Controller: set.Controller, Seed: *seed, Cost: cluster.PaperCost()}
	job := e.Batch(input, *scale, apps.SketchOptions{Options: opts, Sketch: *sketch})
	job.Workers = *workers
	job.Retry.MaxAttemptsPerTask = *maxAttempts
	job.DegradeToDrop = *degrade
	set.Apply(job)

	cfg := cluster.DefaultConfig()
	if *faults > 0 {
		// Reduce state is not replicated, so a fail-stop on a
		// reduce-hosting server aborts the job regardless of the retry
		// policy. Reduces are placed round-robin from server 0; protect
		// those hosts (their faults weaken to transient task faults).
		reduces := job.Reduces
		if reduces <= 0 || reduces > cfg.Servers {
			reduces = cfg.Servers
		}
		protect := make([]int, reduces)
		for i := range protect {
			protect[i] = i
		}
		plan := cluster.RandomFaultPlan(*seed, *faults, cfg.Servers, 20.0, protect...)
		job.Faults = &plan
	}

	job.RecordTrace = *trace != ""

	eng := cluster.New(cfg)
	res, err := mapreduce.Run(eng, job)
	if err != nil {
		fatal(1, err)
	}

	if *trace != "" {
		out := os.Stdout
		var f *os.File
		if *trace != "-" {
			f, err = os.Create(*trace)
			if err != nil {
				fatal(1, err)
			}
			out = f
		}
		if err := mapreduce.WriteTraceJSONL(out, res.Trace); err != nil {
			fatal(1, fmt.Errorf("trace: %w", err))
		}
		if f != nil {
			if err := f.Close(); err != nil {
				fatal(1, fmt.Errorf("trace: %w", err))
			}
		}
		if *trace == "-" {
			return // the event log owns stdout
		}
		fmt.Fprintf(os.Stderr, "approxrun: wrote %d trace events to %s\n", len(res.Trace), *trace)
	}
	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			fatal(1, err)
		}
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fatal(1, fmt.Errorf("memprofile: %w", err))
		}
		if err := f.Close(); err != nil {
			fatal(1, fmt.Errorf("memprofile: %w", err))
		}
	}

	switch *format {
	case "tsv":
		if err := mapreduce.WriteTSV(os.Stdout, res); err != nil {
			fatal(1, err)
		}
		return
	case "json":
		if err := mapreduce.WriteJSON(os.Stdout, res); err != nil {
			fatal(1, err)
		}
		return
	}

	outs := append([]mapreduce.KeyEstimate(nil), res.Outputs...)
	sort.Slice(outs, func(i, j int) bool { return outs[i].Est.Value > outs[j].Est.Value })
	if len(outs) > *topN {
		outs = outs[:*topN]
	}
	fmt.Printf("%s: %d maps (%d completed, %d dropped, %d killed), %d waves\n",
		res.Job, res.Counters.MapsTotal, res.Counters.MapsCompleted,
		res.Counters.MapsDropped, res.Counters.MapsKilled, res.Counters.Waves)
	if c := res.Counters; c.MapsFailed > 0 || c.MapsDegraded > 0 {
		fmt.Printf("faults: %d attempts failed, %d retried, %d degraded to drops, %d servers blacklisted\n",
			c.MapsFailed, c.MapsRetried, c.MapsDegraded, c.ServersBlacklisted)
	}
	fmt.Printf("items processed: %d / %d; shuffle %d bytes; simulated runtime %.1f s; energy %.1f Wh\n\n",
		res.Counters.ItemsProcessed, res.Counters.ItemsTotal,
		res.Counters.ShuffleBytes, res.Runtime, res.EnergyWh)
	for _, o := range outs {
		if o.Exact {
			fmt.Printf("%-24s %14.1f (exact)\n", o.Key, o.Est.Value)
		} else {
			fmt.Printf("%-24s %14.1f ± %-12.1f (95%% conf)\n", o.Key, o.Est.Value, o.Est.Err)
		}
	}
}

// fatal reports err and exits with code.
func fatal(code int, err error) {
	fmt.Fprintf(os.Stderr, "approxrun: %v\n", err)
	os.Exit(code)
}

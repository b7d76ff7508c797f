// Command approxctl is the client and load generator for approxd, the
// multi-tenant ApproxHadoop job service.
//
// Usage:
//
//	approxctl [-addr URL] <command> [flags]
//
//	approxctl submit -app total-size -sample 0.25
//	approxctl submit -app page-popularity -target 0.05 -pilot
//	approxctl submit -app clients -deadline 30 -best-effort
//	approxctl submit -app clients -key billing-2026-08  # idempotent submit
//	approxctl status                 # list all jobs
//	approxctl status job-0000        # one job
//	approxctl watch job-0000         # follow the early-result stream
//	approxctl result job-0000
//	approxctl await job-0000         # block until terminal, fail unless done
//	approxctl verify job-0000        # served result must be byte-identical
//	                                 # to a direct local run of its spec
//	approxctl cancel job-0000
//	approxctl stats
//	approxctl replay -n 50 -seed 42  # run a seeded trace via /v1/replay
//	approxctl loadgen -n 20 -seed 7  # hammer a live daemon concurrently
//	approxctl smoke -n 6 -seed 3     # end-to-end check: streamed estimates
//	                                 # converge to the final result, and the
//	                                 # final matches a direct local run
//
// Transient failures (connection errors, 429, 503) retry with seeded
// exponential backoff (-retries, -retry-seed), never waiting less than
// the server's Retry-After. GETs, cancels and submissions that carry an
// idempotency key (-key) retry all three — a keyed retry can never
// double-run a job, even across a daemon crash and restart, because
// approxd journals the key with the spec. An unkeyed submission retries
// a 429 alone: approxd sends it before admitting anything, while a 503
// may come from a request timeout after the job was admitted.
// Interrupted streams reconnect and resume from the last seen sequence
// number. loadgen runs on the same client, so its bounces follow the
// same budget and honour Retry-After.
//
// smoke and verify exit nonzero on any divergence; CI runs them
// against freshly started (and, for the chaos job, kill -9'd and
// restarted) approxd instances.
package main

import (
	"flag"
	"fmt"
	"net/http"
	"os"
	"reflect"
	"sort"
	"sync"
	"time"

	"approxhadoop/internal/jobserver"
	"approxhadoop/internal/mapreduce"
	"approxhadoop/internal/stats"
	"approxhadoop/internal/wire"
)

func usage() {
	fmt.Fprintln(os.Stderr, "usage: approxctl [-addr URL] [-retries N] {submit|status|result|await|verify|cancel|watch|stats|replay|loadgen|smoke} [flags]")
	os.Exit(2)
}

func main() {
	addr := flag.String("addr", "http://127.0.0.1:7070", "approxd base URL")
	retries := flag.Int("retries", 4, "retry budget for transient failures (connection errors, 429/503)")
	retrySeed := flag.Int64("retry-seed", 1, "seed for backoff jitter, so retry schedules are reproducible")
	flag.Parse()
	if flag.NArg() == 0 {
		usage()
	}
	c := &client{base: *addr, retries: *retries, rng: stats.NewRand(*retrySeed)}
	cmd, args := flag.Arg(0), flag.Args()[1:]
	var err error
	switch cmd {
	case "submit":
		err = cmdSubmit(c, args)
	case "status":
		err = cmdStatus(c, args)
	case "result":
		err = cmdResult(c, args)
	case "await":
		err = cmdAwait(c, args)
	case "verify":
		err = cmdVerify(c, args)
	case "cancel":
		err = cmdCancel(c, args)
	case "watch":
		err = cmdWatch(c, args)
	case "stats":
		err = cmdStats(c)
	case "replay":
		err = cmdReplay(c, args)
	case "loadgen":
		err = cmdLoadgen(c, args)
	case "smoke":
		err = cmdSmoke(c, args)
	default:
		usage()
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "approxctl: %v\n", err)
		os.Exit(1)
	}
}

// specFlags registers the JobSpec surface on fs and returns a builder.
func specFlags(fs *flag.FlagSet) func() jobserver.JobSpec {
	var s jobserver.JobSpec
	fs.StringVar(&s.Name, "name", "", "job name (default <app>-<seed>)")
	fs.StringVar(&s.App, "app", "total-size", "catalog application: "+fmt.Sprint(jobserver.Apps()))
	fs.IntVar(&s.Blocks, "blocks", 0, "input blocks == map tasks (default 48)")
	fs.IntVar(&s.LinesPerBlock, "lines", 0, "lines per block (default 200)")
	fs.Int64Var(&s.Seed, "seed", 1, "input/sampling seed")
	fs.Float64Var(&s.Weight, "weight", 0, "fair-share weight (default 1)")
	fs.Float64Var(&s.SampleRatio, "sample", 0, "input sampling ratio (0,1]")
	fs.Float64Var(&s.DropRatio, "drop", 0, "map-task dropping ratio [0,1)")
	fs.Float64Var(&s.TargetError, "target", 0, "target relative error bound (instead of ratios)")
	fs.BoolVar(&s.Pilot, "pilot", false, "target: bootstrap with a cheap pilot wave")
	fs.Float64Var(&s.Deadline, "deadline", 0, "map-phase SLO in virtual seconds (instead of ratios or a target)")
	fs.BoolVar(&s.BestEffort, "best-effort", false, "deadline: degrade instead of failing on overrun")
	fs.StringVar(&s.IdempotencyKey, "key", "", "idempotency key: duplicate submissions (and blind retries) return the original job")
	fs.StringVar(&s.Tenant, "tenant", "", "tenant identity: placement key on a sharded daemon, quota subject")
	return func() jobserver.JobSpec { return s }
}

func cmdSubmit(c *client, args []string) error {
	fs := flag.NewFlagSet("submit", flag.ExitOnError)
	spec := specFlags(fs)
	//lint:ignore errcheck ExitOnError flag sets never return an error
	_ = fs.Parse(args)
	id, held, err := c.submit(spec())
	if err != nil {
		return err
	}
	if id == "" {
		fmt.Printf("held (%d parked; POST /v1/release to run)\n", held)
		return nil
	}
	fmt.Println(id)
	return nil
}

func printState(st jobserver.WireState) {
	line := fmt.Sprintf("%-9s %-28s %-9s submit@%.1f", st.ID, st.Spec.Name, st.Status, st.SubmitVT)
	if st.Status.Terminal() {
		line += fmt.Sprintf(" end@%.1f", st.EndVT)
	}
	if st.Err != "" {
		line += "  " + st.Err
	}
	fmt.Println(line)
}

func cmdStatus(c *client, args []string) error {
	if len(args) == 0 {
		var states []jobserver.WireState
		if err := c.get("/v1/jobs", &states); err != nil {
			return err
		}
		for _, st := range states {
			printState(st)
		}
		return nil
	}
	var st jobserver.WireState
	if err := c.get("/v1/jobs/"+args[0], &st); err != nil {
		return err
	}
	printState(st)
	return nil
}

func printResult(res jobserver.WireResult) {
	fmt.Printf("%s: runtime %.2f s, energy %.2f Wh, %d/%d maps (%d dropped), %d waves\n",
		res.Job, res.Runtime, res.EnergyWh,
		res.Counters.MapsCompleted, res.Counters.MapsTotal,
		res.Counters.MapsDropped, res.Counters.Waves)
	outs := append([]jobserver.WireEstimate(nil), res.Outputs...)
	sort.Slice(outs, func(i, j int) bool { return outs[i].Value > outs[j].Value })
	if len(outs) > 15 {
		outs = outs[:15]
	}
	for _, o := range outs {
		switch {
		case o.Exact:
			fmt.Printf("  %-24s %14.1f (exact)\n", o.Key, o.Value)
		case o.Unbounded:
			fmt.Printf("  %-24s %14.1f (unbounded)\n", o.Key, o.Value)
		default:
			fmt.Printf("  %-24s %14.1f ± %-12.1f (%.0f%% conf)\n", o.Key, o.Value, o.Epsilon, o.Confidence*100)
		}
	}
}

func cmdResult(c *client, args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("usage: approxctl result <id>")
	}
	var res jobserver.WireResult
	if err := c.get("/v1/jobs/"+args[0]+"/result", &res); err != nil {
		return err
	}
	printResult(res)
	return nil
}

// cmdAwait blocks until the job is terminal and fails unless it is
// done — the scriptable "wait for my result" primitive the CI chaos
// job leans on across a daemon restart (GET polls retry through the
// outage automatically).
func cmdAwait(c *client, args []string) error {
	fs := flag.NewFlagSet("await", flag.ExitOnError)
	timeout := fs.Duration("timeout", 2*time.Minute, "wall-clock budget")
	//lint:ignore errcheck ExitOnError flag sets never return an error
	_ = fs.Parse(args)
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: approxctl await [-timeout d] <id>")
	}
	st, err := c.waitTerminal(fs.Arg(0), time.Now().Add(*timeout))
	if err != nil {
		return err
	}
	printState(st)
	if st.Status != jobserver.StatusDone {
		return fmt.Errorf("job %s finished %s: %s", st.ID, st.Status, st.Err)
	}
	return nil
}

// directOutputs runs a spec to completion on a private in-process
// cluster and returns its wire-form outputs — the ground truth every
// served result is compared against.
func directOutputs(spec jobserver.JobSpec) ([]jobserver.WireEstimate, error) {
	job, err := spec.Build(1)
	if err != nil {
		return nil, err
	}
	res, err := mapreduce.Run(jobserver.New(jobserver.Config{SnapshotEvery: -1}).Engine(), job)
	if err != nil {
		return nil, fmt.Errorf("direct run of %s: %w", spec.Name, err)
	}
	return jobserver.WireEstimates(res.Outputs), nil
}

// cmdVerify re-executes each job's served spec locally and requires
// the served outputs to be byte-identical — (spec, seed) runs are
// bit-exact regardless of scheduling, so this holds even for results
// recovered from the journal after a kill -9. This is the client half
// of the chaos gate.
func cmdVerify(c *client, args []string) error {
	if len(args) == 0 {
		return fmt.Errorf("usage: approxctl verify <id>...")
	}
	for _, id := range args {
		var st jobserver.WireState
		if err := c.get("/v1/jobs/"+id, &st); err != nil {
			return err
		}
		if st.Status != jobserver.StatusDone || st.Result == nil {
			return fmt.Errorf("job %s is %s, nothing to verify: %s", id, st.Status, st.Err)
		}
		want, err := directOutputs(st.Spec)
		if err != nil {
			return err
		}
		if !reflect.DeepEqual(st.Result.Outputs, want) {
			return fmt.Errorf("job %s (%s): served outputs NOT byte-identical to a direct run of its spec", id, st.Spec.Name)
		}
		fmt.Printf("verified %s (%s): %d keys byte-identical to direct run\n", id, st.Spec.Name, len(st.Result.Outputs))
	}
	return nil
}

func cmdCancel(c *client, args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("usage: approxctl cancel <id>")
	}
	if err := c.do(http.MethodDelete, "/v1/jobs/"+args[0], nil, nil); err != nil {
		return err
	}
	fmt.Println("canceled")
	return nil
}

func cmdWatch(c *client, args []string) error {
	fs := flag.NewFlagSet("watch", flag.ExitOnError)
	wireFmt := fs.Bool("wire", false, "negotiate the binary frame format instead of JSONL")
	//lint:ignore errcheck ExitOnError flag sets never return an error
	_ = fs.Parse(args)
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: approxctl watch [-wire] <id>")
	}
	return c.streamLoop(fs.Arg(0), *wireFmt, func(f *wire.JobFrame) error {
		// One line per snapshot: worst relative CI across keys, so the
		// narrowing is visible at a glance.
		worst := 0.0
		unbounded := false
		for _, e := range f.Estimates {
			if e.Exact {
				continue
			}
			if e.Unbounded {
				unbounded = true
				continue
			}
			if e.Value > 0 || e.Value < 0 {
				rel := e.Epsilon / e.Value
				if rel < 0 {
					rel = -rel
				}
				if worst < rel {
					worst = rel
				}
			}
		}
		tag := ""
		if f.Final {
			tag = " final"
		}
		if unbounded {
			fmt.Printf("t=%8.1f  %-9s keys=%d  worst-CI=unbounded%s\n", f.T, f.Status, len(f.Estimates), tag)
		} else {
			fmt.Printf("t=%8.1f  %-9s keys=%d  worst-CI=%.3f%%%s\n", f.T, f.Status, len(f.Estimates), worst*100, tag)
		}
		return nil
	})
}

func cmdStats(c *client) error {
	var st jobserver.Stats
	if err := c.get("/v1/stats", &st); err != nil {
		return err
	}
	fmt.Printf("policy %s, virtual time %.1f s, energy %.1f Wh\n", st.Policy, st.VirtualNow, st.EnergyWh)
	fmt.Printf("active %d, queued %d / submitted %d: done %d, failed %d, canceled %d, rejected %d\n",
		st.Active, st.Queued, st.Submitted, st.Done, st.Failed, st.Canceled, st.Rejected)
	fmt.Printf("cluster: %d map slots, %d reduce slots\n", st.MapSlots, st.ReduceSlots)
	return nil
}

func summarize(states []jobserver.WireState) {
	byStatus := map[jobserver.JobStatus]int{}
	for _, st := range states {
		byStatus[st.Status]++
		printState(st)
	}
	fmt.Printf("%d jobs:", len(states))
	for _, s := range []jobserver.JobStatus{jobserver.StatusDone, jobserver.StatusFailed,
		jobserver.StatusCanceled, jobserver.StatusRejected} {
		if byStatus[s] > 0 {
			fmt.Printf(" %d %s", byStatus[s], s)
		}
	}
	fmt.Println()
}

func cmdReplay(c *client, args []string) error {
	fs := flag.NewFlagSet("replay", flag.ExitOnError)
	n := fs.Int("n", 50, "jobs in the generated trace")
	seed := fs.Int64("seed", 42, "trace seed")
	//lint:ignore errcheck ExitOnError flag sets never return an error
	_ = fs.Parse(args)
	var states []jobserver.WireState
	if err := c.post("/v1/replay", jobserver.GenerateTrace(*n, *seed), &states); err != nil {
		return err
	}
	summarize(states)
	return nil
}

// cmdSmoke is the end-to-end service check CI runs against a live
// daemon: submit the trace concurrently, follow every job's stream,
// and require (a) the last streamed frame to be final and bitwise
// equal to the fetched result, and (b) the result's outputs to be
// bitwise equal to a direct in-process mapreduce.Run of the same spec.
// The second check is the service acceptance property end to end: the
// multi-tenant schedule may reorder waves, but per-job outputs depend
// only on (spec, seed).
func cmdSmoke(c *client, args []string) error {
	fs := flag.NewFlagSet("smoke", flag.ExitOnError)
	n := fs.Int("n", 6, "jobs to submit concurrently")
	seed := fs.Int64("seed", 3, "trace seed")
	timeout := fs.Duration("timeout", 2*time.Minute, "wall-clock budget")
	//lint:ignore errcheck ExitOnError flag sets never return an error
	_ = fs.Parse(args)

	trace := jobserver.GenerateTrace(*n, *seed)
	ids := make([]string, len(trace))
	var wg sync.WaitGroup
	var submitErr error
	var mu sync.Mutex
	for i, spec := range trace {
		i, spec := i, spec
		wg.Add(1)
		go func() {
			defer wg.Done()
			id, _, err := c.submit(spec)
			if err != nil {
				mu.Lock()
				submitErr = fmt.Errorf("submit %s: %w", spec.Name, err)
				mu.Unlock()
				return
			}
			ids[i] = id
		}()
	}
	wg.Wait()
	if submitErr != nil {
		return submitErr
	}

	deadline := time.Now().Add(*timeout)
	for i, id := range ids {
		spec := trace[i]
		st, err := c.waitTerminal(id, deadline)
		if err != nil {
			return err
		}
		if st.Status != jobserver.StatusDone {
			return fmt.Errorf("job %s (%s): %s %s", id, spec.Name, st.Status, st.Err)
		}

		var res jobserver.WireResult
		if err := c.get("/v1/jobs/"+id+"/result", &res); err != nil {
			return err
		}

		// (a) The stream must converge to the final result: frames in
		// order, CI-bearing snapshots first, last frame final and equal.
		var frames []*wire.JobFrame
		if err := c.streamLoop(id, false, func(f *wire.JobFrame) error {
			frames = append(frames, f)
			return nil
		}); err != nil {
			return fmt.Errorf("job %s stream: %w", id, err)
		}
		if len(frames) == 0 {
			return fmt.Errorf("job %s: empty stream", id)
		}
		last := frames[len(frames)-1]
		if !last.Final {
			return fmt.Errorf("job %s: last stream frame not final", id)
		}
		if !reflect.DeepEqual(last.Estimates, res.Outputs) {
			return fmt.Errorf("job %s: final stream frame diverges from result", id)
		}
		for j := 1; j < len(frames); j++ {
			if frames[j].T < frames[j-1].T {
				return fmt.Errorf("job %s: stream time went backwards (%g after %g)", id, frames[j].T, frames[j-1].T)
			}
		}

		// (b) The served outputs must agree with a direct run of the same
		// spec on a private cluster. Live submissions land at arbitrary
		// virtual times, so slot contention can permute the order map
		// outputs reach the estimator's accumulators — that moves sums by
		// an ulp or two, no more. Anything beyond rounding is a real bug.
		direct, err := directOutputs(spec)
		if err != nil {
			return err
		}
		if err := outputsAgree(direct, res.Outputs); err != nil {
			return fmt.Errorf("job %s (%s): served outputs diverge from direct run: %w", id, spec.Name, err)
		}
		fmt.Printf("ok %-28s %d snapshots, %d keys, runtime %.1f s\n",
			spec.Name, len(frames), len(res.Outputs), res.Runtime)
	}

	// (c) The deterministic path must be bit-exact: replaying the same
	// trace through /v1/replay equals a local in-process Replay under
	// the daemon's policy. JSON float64 encoding round-trips exactly,
	// so DeepEqual over the wire forms is a bitwise comparison.
	var st jobserver.Stats
	if err := c.get("/v1/stats", &st); err != nil {
		return err
	}
	pol, err := jobserver.ParsePolicy(st.Policy)
	if err != nil {
		return err
	}
	var served []jobserver.WireState
	if err := c.post("/v1/replay", trace, &served); err != nil {
		return fmt.Errorf("replay: %w", err)
	}
	cfg := jobserver.Config{Policy: pol, MaxQueue: len(trace) + 1, SnapshotEvery: -1}
	local := jobserver.New(cfg).Replay(trace)
	if len(served) != len(local) {
		return fmt.Errorf("replay served %d states, local %d", len(served), len(local))
	}
	for i := range local {
		want, got := local[i], served[i]
		if got.Status != want.Status {
			return fmt.Errorf("replay job %s: served %s, local %s", want.Spec.Name, got.Status, want.Status)
		}
		if want.Result == nil || got.Result == nil {
			continue
		}
		if !reflect.DeepEqual(got.Result.Outputs, jobserver.WireEstimates(want.Result.Outputs)) {
			return fmt.Errorf("replay job %s: served outputs not byte-identical to local replay", want.Spec.Name)
		}
	}

	fmt.Printf("smoke ok: %d jobs served live and verified against direct runs; %d-job replay byte-identical\n",
		len(ids), len(trace))
	return nil
}

// outputsAgree compares two output sets key by key within relative
// tolerance 1e-9 (live-mode accumulation-order rounding is ~1 ulp).
func outputsAgree(want, got []wire.Estimate) error {
	if len(want) != len(got) {
		return fmt.Errorf("%d keys, want %d", len(got), len(want))
	}
	within := func(a, b float64) bool {
		d := a - b
		if d < 0 {
			d = -d
		}
		scale := 1.0
		if b > scale {
			scale = b
		} else if -b > scale {
			scale = -b
		}
		return d <= 1e-9*scale
	}
	for i := range want {
		w, g := want[i], got[i]
		if g.Key != w.Key || g.Exact != w.Exact || g.Unbounded != w.Unbounded {
			return fmt.Errorf("key %d: got %s/exact=%v/unbounded=%v, want %s/exact=%v/unbounded=%v",
				i, g.Key, g.Exact, g.Unbounded, w.Key, w.Exact, w.Unbounded)
		}
		if !within(g.Value, w.Value) || (!w.Unbounded && !within(g.Epsilon, w.Epsilon)) {
			return fmt.Errorf("key %s: got %v±%v, want %v±%v", w.Key, g.Value, g.Epsilon, w.Value, w.Epsilon)
		}
	}
	return nil
}

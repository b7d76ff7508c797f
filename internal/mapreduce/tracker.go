package mapreduce

import (
	"fmt"
	"math"

	"approxhadoop/internal/cluster"
	"approxhadoop/internal/dfs"
	"approxhadoop/internal/sketch"
	"approxhadoop/internal/stats"
	"approxhadoop/internal/vtime"
)

// taskState tracks the lifecycle of one logical map task.
type taskState int

const (
	taskPending taskState = iota
	taskRunning
	taskDone
	taskDropped
)

// reduceTask is the runtime state of one reduce partition; its
// ReduceLogic, barrier buffer and final outputs are those of the
// partition's end, the reduceFuture checkCompletion runs on the pool.
type reduceTask struct {
	partition int
	server    *cluster.Server
	handle    *cluster.RunningTask
	busyUntil float64 // virtual time the reduce is busy through
	pairs     int64
	reduceFuture
}

// tracker is the JobTracker: it owns all scheduling state for one job.
type tracker struct {
	eng *cluster.Engine
	job *Job
	arb SlotArbiter

	blocks  []*dfs.Block
	order   []int // launch order (random unless SequentialOrder)
	nextOrd int
	retry   []int // failed tasks awaiting re-execution

	state     []taskState                    // written through setState only
	inState   [4]int                         // tasks per taskState; inState[s] == count of state[i] == s
	ratios    []float64                      // sampling ratio used per task
	attempts  map[int][]*cluster.RunningTask // running attempts per task
	durations []float64                      // virtual durations of completed attempts

	// Failure-aware scheduling state (RetryPolicy + DegradeToDrop).
	attemptsMade []int                      // launches (incl. retries) per task
	serverByID   map[string]*cluster.Server // engine servers by ID for replica liveness
	serverFaults map[string]int             // failed attempts attributed per server
	blacklist    map[string]bool            // servers removed from map scheduling
	backoffOut   int                        // retry timers not yet fired
	deadlineHit  bool                       // JobDeadline expired (DegradeToDrop mode)

	reduces     []*reduceTask
	reducesLeft int
	// viewBase holds the JobView fields fixed for the job's life (the
	// totals and the accessor closures), built once by startReduces.
	viewBase JobView

	measures  []cluster.TaskMeasure // their Items sum to counters.ItemsTotal
	counters  Counters
	emitted   int64         // pairs completed maps put through the pair arenas (emitHint)
	maxKeys   emitHint      // most distinct keys, and key bytes, of any completed map (emitHint)
	proto     sketch.Sketch // the job's empty sketch under Job.Sketch, cloned by every attempt
	launched  int
	completed int
	dropped   int
	curRatio  float64 // ratio when controller declines to specify

	realSecs    float64
	fillQueued  bool
	finalizing  bool
	failErr     error
	result      *Result
	startTime   float64
	startEnergy float64
	startBreak  cluster.EnergyBreakdown
	onDone      func(*Result, error)
	doneFired   bool
	events      []Event // recorded when job.RecordTrace

	// Compute-plane state (see pool.go): launches decided during the
	// current scheduling pass await their map compute, which runs on
	// the worker pool; results apply in decide order at flush.
	pool    *futurePool
	pending []*pendingLaunch
	// futures holds the latest future per task. executeMap is a pure
	// function of (job, block, ratio, seed) and the seed is per-task, so
	// retries and speculative re-attempts at the same ratio collect the
	// first attempt's computation instead of re-running the kernel — and
	// a first attempt collects what readAhead started for it.
	futures map[int]*mapFuture
	issue   []*mapFuture // created since the last flush, not yet submitted
	// Readahead (see readAhead): ahead are the futures of the launches
	// predicted next, in t.order up to aheadOrd, all at lastRatio;
	// aheadHits counts consecutive launches that matched.
	ahead     []*mapFuture
	aheadOrd  int
	aheadHits int
	lastRatio float64 // ratio of the most recent first launch of a task
}

// Run executes job on the simulated cluster and returns its result.
// The engine's virtual clock and energy accounting continue from their
// current values, so several jobs can share a timeline; most callers
// use a fresh engine per job.
func Run(eng *cluster.Engine, job *Job) (*Result, error) {
	h, err := Start(eng, job, StartOptions{})
	if err != nil {
		return nil, err
	}
	eng.Run()
	return h.Outcome()
}

// StartOptions configures how a job is attached to a shared engine.
type StartOptions struct {
	// Arbiter grants map slots; nil installs the single-job greedy
	// arbiter (whole cluster, replica-preferring placement).
	Arbiter SlotArbiter
	// OnDone, when set, is invoked exactly once on the scheduler
	// goroutine — in virtual-time order — when the job completes or
	// fails. Multi-job services use it to free admission capacity and
	// dispatch queued work at the correct virtual instant.
	OnDone func(*Result, error)
}

// Handle is the running-job handle returned by Start. Its methods must
// be called from the goroutine driving the engine (the virtual-time
// plane is single-threaded by design).
type Handle struct {
	t *tracker
}

// Job returns the job this handle tracks.
func (h *Handle) Job() *Job { return h.t.job }

// Done reports whether the job has completed or failed.
func (h *Handle) Done() bool { return h.t.result != nil || h.t.failErr != nil }

// Outcome returns the job's result once Done; calling it earlier
// yields a descriptive error.
func (h *Handle) Outcome() (*Result, error) {
	if h.t.failErr != nil {
		return nil, h.t.failErr
	}
	if h.t.result == nil {
		return nil, fmt.Errorf("mapreduce: job %q did not complete", h.t.job.Name)
	}
	return h.t.result, nil
}

// Progress reports the job's counters so far (a copy).
func (h *Handle) Progress() Counters { return h.t.counters }

// MapDemand returns the number of map tasks the job still wants to
// launch (pending, including queued retries). Arbiters use it to tell
// a hungry job from one that is merely waiting out its tail.
func (h *Handle) MapDemand() int { return h.t.pendingCount() }

// Kick schedules a scheduling pass for the job at the current virtual
// time. Arbiters call it when capacity frees for a job they previously
// told to wait.
func (h *Handle) Kick() { h.t.scheduleFill() }

// Cancel aborts the job at the current virtual time: running attempts
// are killed, its reduce slots are released, and Outcome reports a
// cancellation error.
func (h *Handle) Cancel() {
	if h.Done() {
		return
	}
	h.t.fail(fmt.Errorf("mapreduce: job %q canceled", h.t.job.Name))
}

// Start attaches a job to the engine without driving it: the tracker's
// events are scheduled on the engine's virtual timeline and the job
// makes progress whenever the caller pumps the engine (Run or Step).
// Many jobs may be started on one engine; the arbiter in opts decides
// how they share map slots.
func Start(eng *cluster.Engine, job *Job, opts StartOptions) (*Handle, error) {
	if err := job.Validate(eng); err != nil {
		return nil, err
	}
	var proto sketch.Sketch
	if job.Sketch != nil {
		var err error
		if proto, err = job.Sketch.newSketch(); err != nil {
			return nil, err
		}
	}
	t := &tracker{
		eng:          eng,
		job:          job,
		arb:          opts.Arbiter,
		onDone:       opts.OnDone,
		blocks:       job.Input.Blocks,
		attempts:     make(map[int][]*cluster.RunningTask),
		curRatio:     1,
		serverByID:   make(map[string]*cluster.Server),
		serverFaults: make(map[string]int),
		blacklist:    make(map[string]bool),
		futures:      make(map[int]*mapFuture),
		proto:        proto,
	}
	if t.arb == nil {
		t.arb = newGreedyArbiter(eng)
	}
	t.pool = newFuturePool(job.Workers)
	n := len(t.blocks)
	t.state = make([]taskState, n)
	t.inState[taskPending] = n
	t.ratios = make([]float64, n)
	t.attemptsMade = make([]int, n)
	t.counters.MapsTotal = n
	for _, s := range eng.Servers() {
		t.serverByID[s.ID] = s
	}

	rng := stats.NewRand(job.Seed)
	if job.SequentialOrder {
		t.order = make([]int, n)
		for i := range t.order {
			t.order[i] = i
		}
	} else {
		// Random task order is required for the sampled map tasks to
		// form a valid first-stage cluster sample (Section 4.3).
		t.order = rng.Perm(n)
	}

	t.startTime = eng.Now()
	t.startEnergy = eng.EnergyWh()
	t.startBreak = eng.EnergyBreakdown()
	eng.Inject(job.Faults)
	if err := t.startReduces(); err != nil {
		t.pool.close()
		return nil, err
	}
	if job.Retry.JobDeadline > 0 {
		eng.After(job.Retry.JobDeadline, t.onDeadline)
	}
	if job.OnSnapshot != nil && job.SnapshotEvery > 0 && !job.Barrier {
		eng.After(job.SnapshotEvery, t.snapshotTick)
	}
	eng.At(eng.Now(), t.fill)
	return &Handle{t: t}, nil
}

// fireDone runs the end-of-job bookkeeping exactly once: the compute
// pool is torn down — whatever readahead has in flight finishes and is
// discarded — and the OnDone hook observes the outcome at the current
// virtual time.
func (t *tracker) fireDone() {
	if t.doneFired {
		return
	}
	t.doneFired = true
	t.pool.close()
	if t.onDone != nil {
		t.onDone(t.result, t.failErr)
	}
}

// startReduces places one reduce task per partition on servers with
// free reduce slots, round-robin.
func (t *tracker) startReduces() error {
	servers := t.eng.Servers()
	si := 0
	for p := 0; p < t.job.Reduces; p++ {
		var srv *cluster.Server
		for scan := 0; scan < len(servers); scan++ {
			cand := servers[si%len(servers)]
			si++
			if cand.FreeSlots(cluster.ReduceSlot) > 0 {
				srv = cand
				break
			}
		}
		if srv == nil {
			return fmt.Errorf("mapreduce: no reduce slot for partition %d", p)
		}
		r := &reduceTask{partition: p, server: srv, reduceFuture: reduceFuture{logic: t.job.NewReduce(p)}}
		part := p
		hostID := srv.ID
		r.handle = t.eng.StartOpenTask(srv, cluster.ReduceSlot, func(killed bool) {
			if killed {
				// Reduce state is not replicated; losing its server
				// loses the partition's accumulated shuffle, so the
				// job fails — even under DegradeToDrop, which bounds
				// lost map *inputs*, not lost reduce *state*
				// (documented limitation).
				t.fail(fmt.Errorf("mapreduce: reduce partition %d lost: server %s failed and reduce state is not replicated", part, hostID))
			}
		})
		t.reduces = append(t.reduces, r)
	}
	t.reducesLeft = len(t.reduces)
	logics := make([]ReduceLogic, len(t.reduces))
	for i, r := range t.reduces {
		logics[i] = r.logic
	}
	t.viewBase = JobView{
		TotalMaps:  len(t.blocks),
		Confidence: t.job.Confidence,
		Estimates:  t.snapshot,
		Logics:     func() []ReduceLogic { return logics },
		CostParams: func() (float64, float64, float64) { return t.job.Cost.Params(t.measures) },
	}
	return nil
}

// scheduleFill queues a scheduling pass at the current virtual time;
// passes are deduplicated so nested callbacks stay simple.
func (t *tracker) scheduleFill() {
	if t.fillQueued || t.failErr != nil {
		return
	}
	t.fillQueued = true
	t.eng.At(t.eng.Now(), func() {
		t.fillQueued = false
		t.fill()
	})
}

// fill runs one scheduling pass and then flushes the launches it
// decided through the compute pool. The split keeps all decisions on
// the virtual-time plane while batched map compute runs in parallel.
func (t *tracker) fill() {
	t.fillPass()
	t.flushLaunches()
}

// fillPass launches pending map tasks onto free slots, consults the
// controller, runs speculation, applies S3 policy, and checks for job
// completion.
func (t *tracker) fillPass() {
	if t.failErr != nil || t.finalizing {
		return
	}
	// Re-execute tasks lost to faults before new work, at their
	// original sampling ratio (Hadoop re-runs failed tasks without
	// consulting the job's approximation settings again).
	for len(t.retry) > 0 {
		idx := t.retry[0]
		if t.state[idx] != taskPending {
			t.retry = t.retry[1:]
			continue
		}
		if t.unrunnable(idx) {
			t.retry = t.retry[1:]
			if !t.degradeUnrunnable(idx) {
				return
			}
			continue
		}
		srv, wait := t.pickServer(t.blocks[idx])
		if srv == nil {
			if !wait {
				t.handleStall()
			}
			return
		}
		ratio := t.ratios[idx]
		if ratio == 0 {
			ratio = 1
		}
		t.retry = t.retry[1:]
		t.launch(idx, srv, ratio)
		if t.failErr != nil {
			return
		}
	}
	for t.nextOrd < len(t.order) {
		idx := t.order[t.nextOrd]
		if t.state[idx] != taskPending {
			t.nextOrd++
			continue
		}
		if t.unrunnable(idx) {
			if !t.degradeUnrunnable(idx) {
				return
			}
			t.nextOrd++
			continue
		}
		ratio := t.curRatio
		if t.job.Controller != nil {
			r, action := t.job.Controller.Plan(t.view())
			if action == PlanDefer && t.runningCount() == 0 {
				// Safety net: a defer with nothing in flight would
				// stall the job forever; run the task instead.
				action = PlanRun
			}
			switch action {
			case PlanDrop:
				t.dropTask(idx)
				t.nextOrd++
				continue
			case PlanDefer:
				t.maybeSpeculate()
				t.checkCompletion()
				return
			}
			if r > 0 {
				ratio = r
			}
		}
		srv, wait := t.pickServer(t.blocks[idx])
		if srv == nil {
			if !wait {
				t.handleStall()
			}
			break // no slot granted right now
		}
		t.launch(idx, srv, ratio)
		if t.failErr != nil {
			return
		}
		t.nextOrd++
	}
	if t.failErr != nil {
		return
	}
	t.maybeSpeculate()
	t.maybeSleepIdle()
	t.checkCompletion()
}

// pickServer requests a map slot from the arbiter for the given
// block, preferring its replica holders (data locality, like Hadoop's
// JobTracker) and excluding blacklisted servers. A nil server with
// wait=true means the arbiter applied backpressure and will kick the
// job when capacity frees; wait=false means no eligible server exists
// and stall handling applies.
func (t *tracker) pickServer(b *dfs.Block) (*cluster.Server, bool) {
	return t.arb.AcquireMap(SlotRequest{
		Job:      t.job,
		Prefer:   b.Replicas,
		Eligible: t.eligibleServer,
	})
}

// eligibleServer is the per-job server filter handed to the arbiter.
func (t *tracker) eligibleServer(s *cluster.Server) bool {
	return !t.blacklist[s.ID]
}

// serverAlive is the liveness predicate handed to dfs replica queries.
func (t *tracker) serverAlive(id string) bool {
	s, ok := t.serverByID[id]
	return ok && !s.Dead()
}

// unrunnable reports whether a task's block has lost every replica to
// server failures (blocks never registered with a NameNode have no
// placement to lose and are always runnable).
func (t *tracker) unrunnable(idx int) bool {
	return t.blocks[idx].Unrunnable(t.serverAlive)
}

// degradeUnrunnable resolves a task whose block has no surviving
// replica: degraded to a dropped cluster under DegradeToDrop (return
// true), otherwise a job failure (return false).
func (t *tracker) degradeUnrunnable(idx int) bool {
	if t.job.DegradeToDrop {
		t.degrade(idx, "")
		return true
	}
	b := t.blocks[idx]
	t.fail(fmt.Errorf("mapreduce: map task %d unrunnable: all %d replicas of block %s lost to server failures",
		idx, len(b.Replicas), b.ID()))
	return false
}

// degrade folds a pending task into the dropped-cluster count: the
// estimators treat it exactly like a deliberately dropped map, so its
// absence widens the confidence interval instead of failing the job.
func (t *tracker) degrade(idx int, server string) {
	if t.state[idx] != taskPending {
		return
	}
	t.setState(idx, taskDropped)
	t.unpredict(idx)
	t.dropped++
	t.counters.MapsDegraded++
	t.emit(EventMapDegraded, idx, server, 0)
}

// anySchedulableServer reports whether some server can ever host map
// work again: alive and not blacklisted (asleep is fine — sleepers are
// woken on demand).
func (t *tracker) anySchedulableServer() bool {
	for _, s := range t.eng.Servers() {
		if !s.Dead() && !t.blacklist[s.ID] {
			return true
		}
	}
	return false
}

// wakeSleepers wakes alive, non-blacklisted servers put to S3 by
// SleepIdle; pending work (a retry after the map phase seemed over)
// needs their slots back. Reports whether any server was woken.
func (t *tracker) wakeSleepers() bool {
	woke := false
	for _, s := range t.eng.Servers() {
		if s.Asleep() && !s.Dead() && !t.blacklist[s.ID] {
			t.eng.Wake(s)
			woke = true
		}
	}
	return woke
}

// handleStall is called when pending tasks exist but no server could
// take one. If progress is still possible — attempts running, retry
// timers pending, or a sleeping server that can be woken — it waits
// (or wakes). Otherwise the job can never finish: under DegradeToDrop
// the pending tasks become statistically-bounded drops; otherwise the
// job fails with a clear error instead of stalling forever.
func (t *tracker) handleStall() {
	if t.runningCount() > 0 || t.backoffOut > 0 {
		return // in-flight work or a timer will trigger another pass
	}
	if t.wakeSleepers() {
		t.scheduleFill()
		return
	}
	if t.anySchedulableServer() {
		return
	}
	if t.job.DegradeToDrop {
		t.degradePending()
		t.checkCompletion()
		return
	}
	alive := 0
	for _, s := range t.eng.Servers() {
		if !s.Dead() {
			alive++
		}
	}
	t.fail(fmt.Errorf("mapreduce: %d map tasks outstanding but no server can host them (%d alive, %d blacklisted)",
		t.pendingCount(), alive, len(t.blacklist)))
}

// noteServerFault attributes a failed attempt to its host and applies
// RetryPolicy.BlacklistAfter.
func (t *tracker) noteServerFault(s *cluster.Server) {
	t.serverFaults[s.ID]++
	ba := t.job.Retry.BlacklistAfter
	if ba > 0 && !t.blacklist[s.ID] && t.serverFaults[s.ID] >= ba {
		t.blacklist[s.ID] = true
		t.counters.ServersBlacklisted++
		t.emit(EventServerBlacklisted, -1, s.ID, 0)
	}
}

// rescheduleOrDegrade decides the fate of a task whose last running
// attempt was just lost to a fault: re-queue it (with optional
// exponential backoff) while the attempt budget lasts; past the
// budget, degrade to a drop or fail the job.
func (t *tracker) rescheduleOrDegrade(idx int) {
	if max := t.job.Retry.MaxAttemptsPerTask; max > 0 && t.attemptsMade[idx] >= max {
		if t.job.DegradeToDrop {
			t.setState(idx, taskPending)
			t.degrade(idx, "")
			return
		}
		t.fail(fmt.Errorf("mapreduce: map task %d exhausted its %d attempts (RetryPolicy.MaxAttemptsPerTask)",
			idx, t.attemptsMade[idx]))
		return
	}
	t.setState(idx, taskPending)
	t.counters.MapsRetried++
	t.emit(EventMapRetried, idx, "", 0)
	b := t.job.Retry.Backoff
	if b <= 0 {
		t.retry = append(t.retry, idx)
		return
	}
	exp := t.attemptsMade[idx] - 1
	if exp > 20 {
		exp = 20 // cap the doubling well below float overflow
	}
	delay := b * float64(int64(1)<<uint(exp))
	t.backoffOut++
	t.eng.After(delay, func() {
		t.backoffOut--
		if t.failErr != nil || t.state[idx] != taskPending {
			return
		}
		t.retry = append(t.retry, idx)
		t.scheduleFill()
	})
}

// onDeadline enforces RetryPolicy.JobDeadline: if the map phase is
// still running when the budget expires, the remaining tasks are cut
// off — degraded to drops under DegradeToDrop, a job error otherwise.
// The reduces then finalize from whatever completed in time.
func (t *tracker) onDeadline() {
	if t.failErr != nil || t.finalizing || t.result != nil {
		return
	}
	unfinished := t.pendingCount() + t.runningCount()
	if unfinished == 0 {
		return
	}
	if !t.job.DegradeToDrop {
		t.fail(fmt.Errorf("mapreduce: job deadline %gs exceeded with %d map tasks unfinished (RetryPolicy.JobDeadline)",
			t.job.Retry.JobDeadline, unfinished))
		return
	}
	t.deadlineHit = true
	t.degradePending()
	t.killRunning()
	t.scheduleFill()
}

// degradePending degrades every pending task to a dropped cluster.
func (t *tracker) degradePending() {
	for idx, st := range t.state {
		if st == taskPending {
			t.degrade(idx, "")
		}
	}
}

// killRunning kills every running attempt. Index order, not map order:
// kill callbacks reshape the schedule and must fire deterministically.
func (t *tracker) killRunning() {
	for idx := 0; idx < len(t.state); idx++ {
		for _, a := range append([]*cluster.RunningTask(nil), t.attempts[idx]...) {
			t.eng.Kill(a)
		}
	}
}

// launch decides a map task attempt: the slot is occupied and all
// bookkeeping done now, in virtual-time order, while the attempt's
// real compute is a future collected at flush.
func (t *tracker) launch(idx int, srv *cluster.Server, ratio float64) {
	if ratio <= 0 || ratio > 1 {
		ratio = 1
	}
	if t.attemptsMade[idx] == 0 {
		t.observe(idx, ratio)
	}
	t.ratios[idx] = ratio
	t.setState(idx, taskRunning)
	t.launched++
	t.attemptsMade[idx]++
	t.emit(EventMapLaunched, idx, srv.ID, ratio)
	t.enqueueAttempt(idx, srv, ratio, false)
}

// enqueueAttempt occupies a map slot for one attempt of task idx and
// queues the collection of its compute: the task's existing future when
// it is for the same ratio (an earlier attempt, or readahead), a new
// one otherwise.
func (t *tracker) enqueueAttempt(idx int, srv *cluster.Server, ratio float64, spec bool) {
	f := t.futures[idx]
	if f == nil || !f.matches(idx, ratio) {
		f = t.newFuture(idx, ratio)
		t.issue = append(t.issue, f)
	}
	pl := &pendingLaunch{spec: spec, f: f}
	pl.handle = t.eng.StartOpenTask(srv, cluster.MapSlot, func(killed bool) { t.onMapDone(pl, killed) })
	t.attempts[idx] = append(t.attempts[idx], pl.handle)
	t.pending = append(t.pending, pl)
}

// newFuture makes the compute of (idx, ratio) the task's current
// future, capturing all it will read — a forked meter included — here
// on the scheduler goroutine.
func (t *tracker) newFuture(idx int, ratio float64) *mapFuture {
	f := &mapFuture{
		job:   t.job,
		block: t.blocks[idx],
		idx:   idx,
		ratio: ratio,
		meter: t.job.Meter.Fork(),
		hint:  t.emitHint(),
		proto: t.proto,
	}
	t.futures[idx] = f
	return f
}

// emitHint sizes the next map attempt's emitter from completed maps:
// the key table and a combiner hold one entry per distinct key, so they
// are sized by the most keys (and key bytes) any map needed, and growth
// stays rare; raw runs hold every pair and are sized by the mean pair
// count. Elements folded into sketches never reach the pair arenas and
// are not counted, so a sketch job preallocates nothing it will not
// fill. Before any map completes, flushLaunches sizes a pass from its
// first map instead. The hint moves allocations only, never a result
// byte.
func (t *tracker) emitHint() emitHint {
	h := t.maxKeys
	if t.counters.MapsCompleted > 0 {
		h.pairs = int(t.emitted / int64(t.counters.MapsCompleted))
	}
	return h
}

// observe scores the standing prediction against the first launch of a
// task: a match is a hit, anything else a miss.
func (t *tracker) observe(idx int, ratio float64) {
	t.lastRatio = ratio
	if len(t.ahead) == 0 {
		return
	}
	if !t.ahead[0].matches(idx, ratio) {
		t.disarm()
		return
	}
	t.ahead = t.ahead[:copy(t.ahead, t.ahead[1:])]
	t.aheadHits++
}

// unpredict is observe for a task dropped instead of launched.
func (t *tracker) unpredict(idx int) {
	if len(t.ahead) > 0 && t.ahead[0].idx == idx {
		t.disarm()
	}
}

// disarm forgets every prediction after a miss: futures no worker has
// started are withdrawn, the rest finish uncollected.
func (t *tracker) disarm() {
	t.pool.cancel(t.ahead)
	for _, f := range t.ahead {
		delete(t.futures, f.idx)
	}
	t.ahead = t.ahead[:0]
	t.aheadHits = 0
}

// readAhead keeps the pool busy between scheduling passes: once tasks
// finish at distinct virtual times a pass launches one or two, and the
// workers would idle while the scheduler applies results. The launch
// order is fixed at job start and executeMap is pure, so the tracker
// predicts that the next pending tasks in t.order will be launched at
// the last launch's ratio. Until two consecutive launches have matched,
// the prediction is dry: one future, held back from the pool, so a job
// that runs one wave and drops its tail computes nothing extra. After
// that the futures are submitted, and the window grows by one per hit
// from the pool width to four times it — the most a miss can waste. A
// predicted future is only collected by the launch it predicted, in
// decide order like any other, so nothing computed early can reach a
// result byte.
func (t *tracker) readAhead() {
	w := t.pool.workers
	if w <= 1 {
		return
	}
	armed := t.aheadHits >= 2
	want := 1
	if armed {
		want = min(w+t.aheadHits-2, 4*w)
	}
	if len(t.ahead) == 0 {
		t.aheadOrd = t.nextOrd
	}
	for ; len(t.ahead) < want && t.aheadOrd < len(t.order); t.aheadOrd++ {
		idx := t.order[t.aheadOrd]
		if t.state[idx] != taskPending {
			continue
		}
		f := t.newFuture(idx, t.lastRatio)
		t.ahead = append(t.ahead, f)
		if armed {
			t.issue = append(t.issue, f)
		}
	}
}

// flushLaunches submits the futures created during the current pass,
// readahead included, then collects those of the launches it decided
// and applies them in decide order: realSecs accrual, duration
// perturbation draws, and completion events all happen in exactly the
// sequence the sequential simulator would produce, which is what makes
// pool size invisible to the virtual timeline.
//
// Until a map of the job completes, emitHint knows nothing, so a pass
// with more futures than the pool can start at once is sized by its
// first map: the workers get the next pool.workers futures, the
// scheduler runs the first, and every later future takes its keys, key
// bytes and pairs as its hint before it is submitted.
func (t *tracker) flushLaunches() {
	if len(t.pending) == 0 {
		return
	}
	batch := t.pending
	t.pending = nil
	// The first future this pass's launches created is needed first: the
	// scheduler runs it itself rather than wake a worker and wait for it.
	held := min(len(t.issue), 1)
	t.readAhead()
	if w := t.pool.workers; held == 1 && t.counters.MapsCompleted == 0 && len(t.issue) > 1+w {
		submit(t.pool, t.issue[1:1+w])
		first := t.issue[0]
		t.pool.wait(first)
		if first.err == nil {
			for _, f := range t.issue[1+w:] {
				f.hint = first.res.size
			}
		}
		held = 1 + w
	}
	submit(t.pool, t.issue[held:])
	t.issue = t.issue[:0]
	for _, pl := range batch {
		if t.failErr == nil {
			t.pool.wait(pl.f)
			if pl.f.err != nil {
				t.fail(pl.f.err)
			}
		}
		if t.failErr != nil {
			t.eng.Kill(pl.handle) // no-op for attempts fail() already killed
			continue
		}
		res := pl.f.res
		t.realSecs += res.measure.RealSecs()
		dur := t.job.Cost.MapDuration(res.measure)
		if !pl.spec {
			dur = t.eng.PerturbDuration(dur)
		}
		// A speculative re-execution does not re-roll the straggler
		// dice with the same bad luck; it keeps the unperturbed
		// duration.
		t.eng.FinishAfter(pl.handle, dur)
	}
}

// onMapDone handles completion or kill of one map attempt. Only a
// completed attempt has had its future collected; a killed one's may
// still be running.
func (t *tracker) onMapDone(pl *pendingLaunch, killed bool) {
	idx, handle := pl.f.idx, pl.handle
	// Every attempt end releases its arbiter grant, even on the abort
	// path below — the engine has already freed the physical slot, and
	// multi-job arbiters kick waiting jobs from this notification.
	t.arb.ReleaseMap(t.job, handle.Server)
	if t.failErr != nil {
		return
	}
	// Remove this attempt from the task's running set.
	live := t.attempts[idx][:0]
	for _, a := range t.attempts[idx] {
		if a != handle {
			live = append(live, a)
		}
	}
	t.attempts[idx] = live

	if killed {
		if handle.Failed() && t.state[idx] == taskRunning {
			// Lost to a fault (transient task fault or server death),
			// not a deliberate kill: apply the retry policy, unless a
			// sibling attempt is still running.
			t.counters.MapsFailed++
			t.emit(EventMapFailed, idx, handle.Server.ID, 0)
			t.noteServerFault(handle.Server)
			if len(live) == 0 {
				t.rescheduleOrDegrade(idx)
			}
			t.scheduleFill()
			return
		}
		if t.deadlineHit && t.state[idx] == taskRunning {
			// Cut off by the job deadline: fold into the dropped-
			// cluster count rather than the controller-kill count.
			if len(live) == 0 {
				t.setState(idx, taskPending)
				t.degrade(idx, handle.Server.ID)
			}
			t.scheduleFill()
			return
		}
		t.counters.MapsKilled++
		t.emit(EventMapKilled, idx, handle.Server.ID, 0)
		if t.state[idx] == taskRunning && len(live) == 0 {
			// Killed with no surviving attempt: the task is dropped.
			t.setState(idx, taskDropped)
			t.dropped++
		}
		t.scheduleFill()
		return
	}
	if t.state[idx] == taskDone {
		// A speculative sibling already delivered; discard.
		t.scheduleFill()
		return
	}
	t.setState(idx, taskDone)
	res := pl.f.res
	// Forget remaining attempts before killing them: the nested kill
	// callbacks must not re-filter the slice we are iterating.
	t.attempts[idx] = nil
	t.completed++
	t.emit(EventMapCompleted, idx, handle.Server.ID, t.ratios[idx])
	t.durations = append(t.durations, handle.Finish-handle.Start)
	t.measures = append(t.measures, res.measure)
	t.counters.MapsCompleted++
	t.counters.ItemsTotal += res.measure.Items
	t.counters.ItemsProcessed += res.measure.Processed
	t.counters.BytesRead += res.measure.Bytes
	t.counters.PairsShuffled += res.pairs
	t.emitted += int64(res.size.pairs)
	t.maxKeys.keys = max(t.maxKeys.keys, res.size.keys)
	t.maxKeys.keyBytes = max(t.maxKeys.keyBytes, res.size.keyBytes)
	// Kill losing speculative siblings.
	for _, a := range live {
		t.eng.Kill(a)
	}
	// Shuffle this task's outputs to every partition (the zero-pair
	// partitions still need the cluster's (M, m) for Equation 3).
	for p, out := range res.partitions {
		t.deliver(t.reduces[p], out)
	}
	if t.job.Controller != nil {
		t.applyDirective(t.job.Controller.Completed(t.view()))
	}
	t.scheduleFill()
}

// deliver hands one map output to a reduce task, accounting its
// processing cost on the virtual timeline (incremental mode) or
// buffering it (barrier mode).
func (t *tracker) deliver(r *reduceTask, out *MapOutput) {
	if t.job.Barrier {
		r.buffered = append(r.buffered, out)
		return
	}
	t.consume(r, out)
}

func (t *tracker) consume(r *reduceTask, out *MapOutput) {
	t.job.Meter.Begin(vtime.OpReduce)
	r.logic.Consume(out)
	t.chargeConsume(r, out, t.job.Meter.End(vtime.OpReduce, int64(out.PairLen()), 0))
}

// chargeConsume accounts one consumed output, whose fold was metered
// at secs: its shuffle bytes, the real seconds and the reduce's busy
// time on the virtual timeline.
func (t *tracker) chargeConsume(r *reduceTask, out *MapOutput, secs float64) {
	sz := out.ShuffleSize()
	t.counters.ShuffleBytes += sz
	totalShuffleBytes.Add(sz)
	n := int64(out.PairLen())
	t.realSecs += secs
	r.pairs += n
	cost := t.job.Cost.ReduceDuration(n, secs)
	now := t.eng.Now()
	if r.busyUntil < now {
		r.busyUntil = now
	}
	r.busyUntil += cost
}

// applyDirective enacts a controller decision.
func (t *tracker) applyDirective(d Directive) {
	if d.Abort != nil {
		// A controller that concludes the job cannot meet its contract
		// (e.g. an infeasible deadline SLO) fails it with the
		// controller's descriptive error instead of guessing.
		t.fail(d.Abort)
		return
	}
	if d.SampleRatio > 0 {
		t.curRatio = math.Min(d.SampleRatio, 1)
	}
	if d.DropPending {
		t.dropAllPending()
	}
	if d.KillRunning {
		t.killRunning()
	}
}

func (t *tracker) dropTask(idx int) {
	if t.state[idx] != taskPending {
		return
	}
	t.setState(idx, taskDropped)
	t.unpredict(idx)
	t.dropped++
	t.counters.MapsDropped++
	t.emit(EventMapDropped, idx, "", 0)
}

func (t *tracker) dropAllPending() {
	for idx, st := range t.state {
		if st == taskPending {
			t.dropTask(idx)
		}
	}
}

// maybeSpeculate launches duplicates of straggling maps when slots are
// idle and no pending work remains (Hadoop's speculative execution).
func (t *tracker) maybeSpeculate() {
	if !t.job.Speculation || t.pendingCount() > 0 || len(t.durations) < 3 {
		return
	}
	med := stats.Percentile(t.durations, 50)
	threshold := t.job.SpecFactor * med
	now := t.eng.Now()
	for idx, st := range t.state {
		if st != taskRunning || len(t.attempts[idx]) != 1 {
			continue
		}
		a := t.attempts[idx][0]
		if now-a.Start <= threshold {
			continue
		}
		srv, _ := t.pickServer(t.blocks[idx])
		if srv == nil {
			return
		}
		t.counters.MapsSpeculated++
		t.emit(EventMapSpeculated, idx, srv.ID, t.ratios[idx])
		t.enqueueAttempt(idx, srv, t.ratios[idx], true)
	}
}

// maybeSleepIdle powers down servers with no running work once no map
// launches remain (Section 5.4: dropping maps saves energy even when it
// cannot shorten a single-wave job).
func (t *tracker) maybeSleepIdle() {
	if !t.job.SleepIdle || t.pendingCount() > 0 {
		return
	}
	for _, s := range t.eng.Servers() {
		if !s.Asleep() && s.Busy(cluster.MapSlot) == 0 && s.Busy(cluster.ReduceSlot) == 0 {
			//lint:ignore errcheck Sleep fails only on a busy server and both slot classes were just checked idle
			_ = t.eng.Sleep(s)
		}
	}
}

// setState moves task idx to state st and keeps the per-state counts,
// which every scheduling decision reads, in step.
func (t *tracker) setState(idx int, st taskState) {
	t.inState[t.state[idx]]--
	t.inState[st]++
	t.state[idx] = st
}

func (t *tracker) pendingCount() int { return t.inState[taskPending] }

func (t *tracker) runningCount() int { return t.inState[taskRunning] }

// checkCompletion finalizes the reduces once every map task is done or
// dropped and no attempts remain in flight. Each partition's end — its
// buffered outputs consumed in barrier mode, then Finalize — is one
// reduceFuture: the workers take every partition but the first, each
// under its own fork of the job's meter, while the scheduler runs the
// first under the job's meter itself. The scheduler then collects them
// in partition order — running any no worker has started — and charges
// each one's metered seconds exactly as a sequential loop over the
// partitions would, so RealSecs, Runtime and the trace do not depend on
// the pool. A single-worker pool runs them all inline, in that order,
// under the job's meter.
func (t *tracker) checkCompletion() {
	if t.finalizing || t.failErr != nil {
		return
	}
	if t.pendingCount() > 0 || t.runningCount() > 0 {
		return
	}
	t.finalizing = true
	t.counters.Waves = t.waves()
	view := t.estView()
	for p, r := range t.reduces {
		r.view, r.meter = view, t.job.Meter
		if p > 0 && t.pool.workers > 1 {
			r.meter = t.job.Meter.Fork()
		}
	}
	submit(t.pool, t.reduces[min(1, len(t.reduces)):])
	for _, r := range t.reduces {
		r := r
		t.pool.wait(r)
		for i, out := range r.buffered {
			t.chargeConsume(r, out, r.consumeSecs[i])
		}
		r.buffered = nil
		t.realSecs += r.finalSecs
		finish := math.Max(t.eng.Now(), r.busyUntil) + t.job.Cost.ReduceDuration(0, r.finalSecs)
		t.eng.At(finish, func() {
			t.eng.FinishTask(r.handle)
			t.emit(EventReduceFinished, r.partition, r.server.ID, 0)
			t.reducesLeft--
			if t.reducesLeft == 0 {
				t.completeJob()
			}
		})
	}
}

// waves estimates how many waves of map tasks the job ran.
func (t *tracker) waves() int {
	slots := t.eng.TotalSlots(cluster.MapSlot)
	if slots == 0 || t.launched == 0 {
		return 0
	}
	return (t.launched + slots - 1) / slots
}

// completeJob assembles the final Result. Every Finalize returns its
// partition sorted by key, so Outputs is their merge; a ReduceLogic that
// breaks that contract has its partition sorted first. With more than
// one worker the merge is cut in two by key: the scheduler merges the
// lower half while the pool may take the upper one.
func (t *tracker) completeJob() {
	merge := mergeFuture{runs: make([][]KeyEstimate, len(t.reduces)), prefixes: make([][]uint64, len(t.reduces))}
	n := 0
	for p, r := range t.reduces {
		if !sortedByKey(r.outputs, r.prefixes) {
			SortByKey(r.outputs)
			r.prefixes = keyPrefixes(r.outputs)
		}
		merge.runs[p], merge.prefixes[p] = r.outputs, r.prefixes
		n += len(r.outputs)
	}
	merge.out = make([]KeyEstimate, n)
	if t.pool.workers > 1 && n > 1 {
		lower, upper := merge.split()
		submit(t.pool, []*mergeFuture{upper})
		lower.compute()
		t.pool.wait(upper)
	} else {
		merge.compute()
	}
	outputs := merge.out
	t.emit(EventJobCompleted, -1, "", 0)
	endBreak := t.eng.EnergyBreakdown()
	t.result = &Result{
		Job:      t.job.Name,
		Outputs:  outputs,
		Runtime:  t.eng.Now() - t.startTime,
		EnergyWh: t.eng.EnergyWh() - t.startEnergy,
		Energy: cluster.EnergyBreakdown{
			BusyJ:  endBreak.BusyJ - t.startBreak.BusyJ,
			IdleJ:  endBreak.IdleJ - t.startBreak.IdleJ,
			SleepJ: endBreak.SleepJ - t.startBreak.SleepJ,
		},
		Counters: t.counters,
		RealSecs: t.realSecs,
		Trace:    t.events,
	}
	t.fireDone()
}

// fail aborts the job: running attempts are killed and pending tasks
// dropped so the event queue drains.
func (t *tracker) fail(err error) {
	if t.failErr != nil {
		return
	}
	t.failErr = err
	t.killRunning()
	for _, r := range t.reduces {
		t.eng.FinishTask(r.handle)
	}
	t.fireDone()
}

// estView builds the EstimateView reduces evaluate against.
func (t *tracker) estView() EstimateView {
	return EstimateView{
		TotalMaps:  len(t.blocks),
		Dropped:    t.dropped,
		Confidence: t.job.Confidence,
	}
}

// snapshotTick delivers a periodic early-results snapshot and
// re-arms itself while the job is still running.
func (t *tracker) snapshotTick() {
	if t.finalizing || t.failErr != nil || t.result != nil {
		return
	}
	t.job.OnSnapshot(t.eng.Now()-t.startTime, t.snapshot())
	t.eng.After(t.job.SnapshotEvery, t.snapshotTick)
}

// snapshot concatenates the current estimates from every partition.
func (t *tracker) snapshot() []KeyEstimate {
	if t.job.Barrier {
		return nil
	}
	view := t.estView()
	var all []KeyEstimate
	for _, r := range t.reduces {
		all = append(all, r.logic.Estimates(view)...)
	}
	return all
}

// view builds the controller's JobView.
func (t *tracker) view() *JobView {
	v := t.viewBase
	if len(t.measures) > 0 {
		v.AvgItems = float64(t.counters.ItemsTotal) / float64(len(t.measures))
	}
	v.TotalMapSlots = t.eng.TotalSlots(cluster.MapSlot)
	if q := t.arb.MapQuota(t.job); q > 0 && q < v.TotalMapSlots {
		// Under multi-tenancy the job's effective wave width is its
		// fair share, not the whole cluster; controllers plan waves
		// against what the arbiter will actually grant.
		v.TotalMapSlots = q
	}
	v.Elapsed = t.eng.Now() - t.startTime
	v.Launched = t.launched
	v.Completed = t.completed
	v.Dropped = t.dropped
	v.Running = t.runningCount()
	v.Pending = t.pendingCount()
	v.Measures = t.measures
	return &v
}

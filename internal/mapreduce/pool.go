// Worker-pool execution of map-attempt, reduce-finalize and
// output-merge compute.
//
// The simulator separates two planes. The *virtual-time plane* (the
// tracker plus the cluster engine) is single-threaded: every
// scheduling, speculation, energy and perturbation decision happens in
// virtual-time order on the goroutine driving Engine.Run. The *compute
// plane* is the real user code that plane decides to run: map attempts
// (executeMap), a pure function of (job config, block, ratio, seed,
// meter), and at the end of the job each reduce partition's last
// consumes and Finalize, a pure function of the partition's
// ReduceLogic, its outputs and the estimate view, and the merge of the
// partitions' outputs. Each may execute on any goroutine at any
// wall-clock moment without affecting the simulation.
//
// The tracker exploits that purity: every (task, ratio) it computes is
// one mapFuture, created on the scheduler goroutine — for a launch it
// just decided, or for one it predicts (tracker.readAhead) — and run by
// whichever goroutine claims it first; once the map phase is over each
// partition's end is one reduceFuture, and the output merge is cut in
// two mergeFutures. Results are collected and
// applied in launch (or partition) order on the scheduler goroutine, so
// the virtual timeline — and therefore every Result byte — is identical
// whether the pool has 1 or N workers and whatever was computed early.
package mapreduce

import (
	"runtime"
	"slices"
	"sort"
	"sync"

	"approxhadoop/internal/cluster"
	"approxhadoop/internal/dfs"
	"approxhadoop/internal/sketch"
	"approxhadoop/internal/vtime"
)

// pendingLaunch is one decided map attempt awaiting its result.
type pendingLaunch struct {
	spec   bool // speculative: duration is not re-perturbed
	handle *cluster.RunningTask
	f      *mapFuture
}

// futureState is a future's progress, guarded by futurePool.mu.
type futureState uint8

const (
	futureNew      futureState = iota // nobody has started it
	futureRunning                     // claimed by a worker or the scheduler
	futureDone                        // res/err are final
	futureCanceled                    // mispredicted before anyone started it
)

// mapFuture is the compute of one (task, ratio). The fields above state
// are fixed at creation, except that flushLaunches may re-size hint
// before the future is submitted; res and err are written by the one
// goroutine that claims it and read by the scheduler once wait returns.
type mapFuture struct {
	job   *Job
	block *dfs.Block
	idx   int
	ratio float64
	meter vtime.Meter // forked at creation, owned by the computation
	hint  emitHint
	proto sketch.Sketch // the job's empty sketch, shared by every future and only read

	state futureState
	res   *mapResult
	err   error
}

// matches reports whether f computes task idx at ratio.
func (f *mapFuture) matches(idx int, ratio float64) bool {
	//lint:ignore nofloateq ratios reach here as verbatim copies: a retry or speculative attempt re-uses t.ratios[idx], and a prediction repeats the last launch's float
	return f.idx == idx && f.ratio == ratio
}

// compute is the pool's entry into a map attempt; everything it reads
// was captured at creation.
//
//approx:compute
func (f *mapFuture) compute() {
	f.res, f.err = executeMap(f.job, f.block, f.idx, f.ratio, f.job.Seed*1000003+int64(f.idx), f.meter, f.hint, f.proto)
}

func (f *mapFuture) progress() *futureState { return &f.state }

// reduceFuture is the end of one reduce partition: in barrier mode the
// consumption of its buffered outputs, in arrival order, then Finalize,
// each in its own OpReduce bracket of the partition's meter, and then,
// outside the brackets, what the job's output merge needs of the
// partition. logic is the partition's for the job's life; the scheduler
// sets buffered, view and meter before it submits the future, and reads
// the results once wait returns.
type reduceFuture struct {
	logic    ReduceLogic
	buffered []*MapOutput // barrier mode only
	view     EstimateView
	meter    vtime.Meter

	state       futureState
	consumeSecs []float64 // per buffered output
	outputs     []KeyEstimate
	prefixes    []uint64 // keyPrefixes(outputs)
	finalSecs   float64
}

// compute is the pool's entry into a partition's end; it touches only
// the partition's own ReduceLogic and meter.
//
//approx:compute
func (f *reduceFuture) compute() {
	f.consumeSecs = make([]float64, len(f.buffered))
	for i, out := range f.buffered {
		f.meter.Begin(vtime.OpReduce)
		f.logic.Consume(out)
		f.consumeSecs[i] = f.meter.End(vtime.OpReduce, int64(out.PairLen()), 0)
	}
	f.meter.Begin(vtime.OpReduce)
	f.outputs = f.logic.Finalize(f.view)
	f.finalSecs = f.meter.End(vtime.OpReduce, int64(len(f.outputs)), 0)
	f.prefixes = keyPrefixes(f.outputs)
}

func (f *reduceFuture) progress() *futureState { return &f.state }

// mergeFuture merges sorted runs, with their keyPrefixes, into out (see
// mergeByKey). completeJob splits the job's merge in two by key and
// hands the upper half to the pool.
type mergeFuture struct {
	runs     [][]KeyEstimate
	prefixes [][]uint64
	out      []KeyEstimate

	state futureState
}

// compute is the pool's entry into the output merge.
//
//approx:compute
func (f *mergeFuture) compute() { mergeByKey(f.out, f.runs, f.prefixes) }

func (f *mergeFuture) progress() *futureState { return &f.state }

// split cuts every run at the first element whose key is not below the
// middle key of the longest run. Every key of a lower part then sorts
// before every key of an upper part, and equal keys stay together in
// run order, so merging the lower parts into the head of out and the
// upper parts into its tail is the whole merge.
func (f *mergeFuture) split() (lower, upper *mergeFuture) {
	long := 0
	for p, r := range f.runs {
		if len(r) > len(f.runs[long]) {
			long = p
		}
	}
	mid := len(f.runs[long]) / 2
	key, prefix := f.runs[long][mid].Key, f.prefixes[long][mid]
	halves := new([2]mergeFuture)
	lower, upper = &halves[0], &halves[1]
	n := len(f.runs)
	runs, prefixes := make([][]KeyEstimate, 2*n), make([][]uint64, 2*n)
	lower.runs, upper.runs = runs[:n], runs[n:]
	lower.prefixes, upper.prefixes = prefixes[:n], prefixes[n:]
	cut := 0
	for p, r := range f.runs {
		ps := f.prefixes[p]
		i := sort.Search(len(r), func(i int) bool { return ps[i] > prefix || ps[i] == prefix && r[i].Key >= key })
		lower.runs[p], upper.runs[p] = r[:i], r[i:]
		lower.prefixes[p], upper.prefixes[p] = ps[:i], ps[i:]
		cut += i
	}
	lower.out, upper.out = f.out[:cut], f.out[cut:]
	return lower, upper
}

// future is what the pool runs: a mapFuture, a reduceFuture or a
// mergeFuture.
type future interface {
	compute()
	progress() *futureState
}

// futurePool runs futures on persistent worker goroutines, started
// by the first submit and stopped by close. Everything but the worker
// loop is called from the scheduler goroutine, which never blocks to
// hand work over: submit appends to a queue and wakes at most one parked
// worker per future (none while all are busy), and wait runs an
// unstarted future itself.
type futurePool struct {
	workers int

	mu      sync.Mutex
	work    sync.Cond // workers park here while the queue is empty
	done    sync.Cond // the scheduler parks here while awaited runs on a worker
	queue   []future  // submitted, in issue order; [:head] are taken
	head    int
	awaited future // what the scheduler is parked on, if anything
	started bool
	closed  bool
	wg      sync.WaitGroup
}

// newFuturePool sizes a pool; workers <= 0 means GOMAXPROCS.
func newFuturePool(workers int) *futurePool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	p := &futurePool{workers: workers}
	p.work.L, p.done.L = &p.mu, &p.mu
	return p
}

// submit makes futures available to p's workers. A single-worker pool
// keeps nothing: wait runs every future inline, in wait order.
func submit[F future](p *futurePool, fs []F) {
	if p.workers <= 1 || len(fs) == 0 {
		return
	}
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.queue = slices.Grow(p.queue, len(fs))
	for _, f := range fs {
		p.queue = append(p.queue, f)
	}
	start := !p.started
	p.started = true
	p.mu.Unlock()
	for i := 0; start && i < p.workers; i++ {
		p.wg.Add(1)
		go p.worker()
	}
	for range fs {
		p.work.Signal() // wakes one parked worker, if any is
	}
}

func (p *futurePool) worker() {
	defer p.wg.Done()
	p.mu.Lock()
	for !p.closed {
		if p.head == len(p.queue) {
			p.queue, p.head = p.queue[:0], 0
			p.work.Wait()
			continue
		}
		f := p.queue[p.head]
		p.head++
		st := f.progress()
		if *st != futureNew {
			continue // the scheduler ran or canceled it meanwhile
		}
		*st = futureRunning
		p.mu.Unlock()
		f.compute()
		p.mu.Lock()
		*st = futureDone
		if p.awaited == f {
			p.awaited = nil
			p.done.Signal()
		}
	}
	p.mu.Unlock()
}

// wait returns once f is done, running it on the calling (scheduler)
// goroutine if no worker has started it.
func (p *futurePool) wait(f future) {
	st := f.progress()
	p.mu.Lock()
	if *st == futureNew || *st == futureCanceled {
		*st = futureRunning
		p.mu.Unlock()
		f.compute()
		p.mu.Lock()
		*st = futureDone
	}
	for *st != futureDone {
		p.awaited = f
		p.done.Wait()
	}
	p.mu.Unlock()
}

// cancel withdraws futures the scheduler no longer wants; one a worker
// has started runs to completion and is never collected.
func (p *futurePool) cancel(fs []*mapFuture) {
	p.mu.Lock()
	for _, f := range fs {
		if f.state == futureNew {
			f.state = futureCanceled
		}
	}
	p.mu.Unlock()
}

// close discards the queue and returns once every worker has exited.
func (p *futurePool) close() {
	p.mu.Lock()
	p.closed = true
	p.queue, p.head = nil, 0
	p.mu.Unlock()
	p.work.Broadcast()
	p.wg.Wait()
}

// Worker-pool execution of map-attempt compute.
//
// The simulator separates two planes. The *virtual-time plane* (the
// tracker plus the cluster engine) is strictly single-threaded: every
// scheduling, speculation, energy and perturbation decision happens in
// virtual-time order on the goroutine driving Engine.Run. The *compute
// plane* is the real user code of map attempts — executeMap — which is
// a pure function of (job config, block, ratio, seed, meter) and so
// may execute on any goroutine at any wall-clock moment without
// affecting the simulation.
//
// The tracker exploits that purity: every (task, ratio) it computes is
// one mapFuture, created on the scheduler goroutine — for a launch it
// just decided, or for one it predicts (tracker.readAhead) — and run by
// whichever goroutine claims it first. Results are collected in launch
// order on the scheduler goroutine, so the virtual timeline — and
// therefore every Result byte — is identical whether the pool has 1 or
// N workers and whatever was computed early.
package mapreduce

import (
	"runtime"
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

// futureState is a mapFuture's progress, guarded by futurePool.mu.
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

// compute is the pool's only entry into the compute plane; everything
// it reads was captured at creation.
//
//approx:compute
func (f *mapFuture) compute() {
	f.res, f.err = executeMap(f.job, f.block, f.idx, f.ratio, f.job.Seed*1000003+int64(f.idx), f.meter, f.hint, f.proto)
}

// futurePool runs mapFutures on persistent worker goroutines, started
// by the first submit and stopped by close. Everything but the worker
// loop is called from the scheduler goroutine, which never blocks to
// hand work over: submit appends to a queue and wakes at most one parked
// worker per future (none while all are busy), and wait runs an
// unstarted future itself.
type futurePool struct {
	workers int

	mu      sync.Mutex
	work    sync.Cond    // workers park here while the queue is empty
	done    sync.Cond    // the scheduler parks here while awaited runs on a worker
	queue   []*mapFuture // submitted, in issue order; [:head] are taken
	head    int
	awaited *mapFuture // what the scheduler is parked on, if anything
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

// submit makes futures available to the workers. A single-worker pool
// keeps nothing: wait runs every future inline, in wait order.
func (p *futurePool) submit(fs []*mapFuture) {
	if p.workers <= 1 || len(fs) == 0 {
		return
	}
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.queue = append(p.queue, fs...)
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
		if f.state != futureNew {
			continue // the scheduler ran or canceled it meanwhile
		}
		f.state = futureRunning
		p.mu.Unlock()
		f.compute()
		p.mu.Lock()
		f.state = futureDone
		if p.awaited == f {
			p.awaited = nil
			p.done.Signal()
		}
	}
	p.mu.Unlock()
}

// wait returns once f is done, running it on the calling (scheduler)
// goroutine if no worker has started it.
func (p *futurePool) wait(f *mapFuture) {
	p.mu.Lock()
	if f.state == futureNew || f.state == futureCanceled {
		f.state = futureRunning
		p.mu.Unlock()
		f.compute()
		p.mu.Lock()
		f.state = futureDone
	}
	for f.state != futureDone {
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

// Package compute poses as a simulator package with worker-pool map
// compute: run is marked as a compute-plane root, so it and its
// callees must not touch scheduler-plane state.
package compute

import "sync"

// Engine doubles for the cluster engine (scheduler plane).
type Engine struct{ now float64 }

// Now reads the virtual clock.
func (e *Engine) Now() float64 { return e.now }

// tracker doubles for the job tracker (scheduler plane).
type tracker struct {
	eng      *Engine
	launched int
}

// Meterlike stands in for vtime.Meter.
type Meterlike interface{ Charge(float64) }

// Job doubles for the mapreduce job config with its shared meter.
type Job struct {
	Meter Meterlike
	Seed  int64
}

var totalPairs int

//approx:compute
func run(job *Job, t *tracker) float64 {
	totalPairs++   // want: purity
	m := job.Meter // want: purity
	m.Charge(1)    // want: purity
	return helper(t) + pooled() + float64(job.Seed)
}

// pooled is reachable from run: sync.Pool hands buffers out in
// goroutine-scheduling order, so every use is a determinism leak.
func pooled() float64 {
	var bufPool sync.Pool                                     // want: purity
	bufPool.Put(make([]byte, 0, 8))                           // want: purity
	buf, _ := bufPool.Get().([]byte)                          // want: purity
	shared := &sync.Pool{New: func() any { return new(int) }} // want: purity
	_ = shared
	return float64(len(buf))
}

// helper is reachable from run, so the compute contract extends here.
func helper(t *tracker) float64 {
	t.launched++       // want: purity
	return t.eng.Now() // want: purity purity
}

// unmarked is NOT reachable from a compute root: the same accesses are
// legal scheduler-plane code and must not be flagged.
func unmarked(t *tracker) float64 {
	t.launched++
	return t.eng.Now()
}

// unmarkedPool is NOT reachable from a compute root: scheduler-plane
// code may use sync.Pool freely.
func unmarkedPool() interface{} {
	var p sync.Pool
	return p.Get()
}

// keep the symbols used so the fixture typechecks without imports
var _ = run
var _ = unmarked
var _ = unmarkedPool

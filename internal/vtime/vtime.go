// Package vtime supplies the simulator's notion of elapsed compute
// time. The discrete-event engine advances a virtual clock between
// events, but map and reduce code runs *in-process at a single virtual
// instant*, so its cost has to be attributed by a meter rather than
// read off the host's wall clock. Wall-clock measurement couples task
// durations — and therefore scheduling order, speculation decisions,
// and the sample sets the controllers see — to host load, which
// silently invalidates the reproducibility the paper's error bounds
// assume. The approxlint `virtualclock` analyzer forbids time.Now /
// time.Since / time.Sleep inside the simulator packages; this package
// is the one sanctioned home for wall-clock access, and only the
// calibration Meter below uses it.
//
// Meters are not safe for concurrent use. The simulator's scheduling
// plane is single-threaded by design, but map-attempt compute may run
// on a worker pool: the framework forks one child meter per attempt
// (see Meter.Fork) so no meter instance is ever shared across
// goroutines.
package vtime

import "time"

// Op identifies one metered operation class.
type Op int

// Operation classes. Begin/End calls for different ops may interleave
// (reads happen between proc brackets) but an op never nests with
// itself.
const (
	OpSetup  Op = iota // fixed per-task setup (open block, build mapper)
	OpRead             // reading/parsing one input record
	OpProc             // one user map() invocation
	OpReduce           // reduce-side consume or finalize
	numOps
)

// Meter attributes compute seconds to in-process task execution.
// Callers bracket each operation with Begin/End; End reports what the
// operation did (record and byte counts) and returns the seconds to
// charge. User code may add explicit work via Charge between Begin and
// End of the enclosing op.
//
//approx:pure
type Meter interface {
	// Begin marks the start of one operation of class op.
	Begin(op Op)
	// End closes the operation and returns its charged seconds. units
	// and bytes describe the work done (records read, pairs consumed,
	// raw bytes scanned); calibration meters may ignore them.
	End(op Op, units, bytes int64) float64
	// Charge adds explicit user-declared work units (e.g. inner-loop
	// iterations of a compute kernel) to the operation in progress.
	Charge(units float64)
	// Fork returns an independent child meter. The framework forks one
	// child per map-task attempt so attempts can execute concurrently
	// on a worker pool without sharing meter state (and so two jobs
	// built from one template never alias a meter). A child starts with
	// no operation in progress; configured rates are inherited.
	Fork() Meter
}

// Charger is implemented by emitters handed to user map functions, so
// compute-bound kernels can declare their work deterministically
// instead of burning real CPU to be measured.
type Charger interface {
	ChargeCompute(units float64)
}

// Deterministic charges fixed per-unit costs, making every measurement
// a pure function of the work performed. It is the default meter: two
// runs of the same job with the same seed produce bit-identical task
// measurements, durations, and schedules on any host.
//
// The default rates approximate a modern single core (≈1 GB/s line
// parsing, ≈100 ns per record handled, ≈2 ns per declared work unit)
// so MeasuredCost-based simulations keep host-like magnitudes.
type Deterministic struct {
	SetupSecs     float64 // charged per OpSetup bracket
	ReadPerItem   float64 // per record returned or skipped by a reader
	ReadPerByte   float64 // per raw byte scanned
	ProcPerCall   float64 // per user map() invocation
	ReducePerPair float64 // per intermediate pair consumed (or key finalized)
	WorkUnitSecs  float64 // per unit declared via Charge

	pending float64 // work units charged inside the current bracket
}

// NewDeterministic returns a Deterministic meter with the default
// rates.
func NewDeterministic() *Deterministic {
	return &Deterministic{
		SetupSecs:     1e-4,
		ReadPerItem:   1e-7,
		ReadPerByte:   1e-9,
		ProcPerCall:   2e-7,
		ReducePerPair: 1e-7,
		WorkUnitSecs:  2e-9,
	}
}

// Begin implements Meter.
func (d *Deterministic) Begin(Op) {}

// End implements Meter.
func (d *Deterministic) End(op Op, units, bytes int64) float64 {
	secs := d.pending * d.WorkUnitSecs
	d.pending = 0
	switch op {
	case OpSetup:
		secs += d.SetupSecs
	case OpRead:
		secs += float64(units)*d.ReadPerItem + float64(bytes)*d.ReadPerByte
	case OpProc:
		secs += d.ProcPerCall
	case OpReduce:
		secs += float64(units) * d.ReducePerPair
	}
	return secs
}

// Charge implements Meter.
func (d *Deterministic) Charge(units float64) { d.pending += units }

// Fork implements Meter: the child inherits the configured rates and
// starts with no pending work. Because Deterministic is a pure
// function of the work reported to it, forked children attribute
// exactly the same seconds as the parent would have.
func (d *Deterministic) Fork() Meter {
	c := *d
	c.pending = 0
	return &c
}

// Wall measures real elapsed host time. It exists for calibrating the
// Deterministic rates and for benchmarking outside the simulator; any
// simulation using it is, by construction, not reproducible.
type Wall struct {
	starts [numOps]time.Time
}

// NewWall returns a wall-clock calibration meter.
func NewWall() *Wall { return &Wall{} }

// Begin implements Meter.
func (w *Wall) Begin(op Op) { w.starts[op] = time.Now() }

// End implements Meter.
func (w *Wall) End(op Op, _, _ int64) float64 {
	return time.Since(w.starts[op]).Seconds()
}

// Charge implements Meter; declared work is already contained in the
// measured elapsed time.
func (w *Wall) Charge(float64) {}

// Fork implements Meter: each attempt gets a fresh wall-clock meter.
// Wall measurements are inherently non-reproducible, concurrent or
// not; forking only keeps the Begin/End brackets from clobbering each
// other across attempts.
func (w *Wall) Fork() Meter { return NewWall() }

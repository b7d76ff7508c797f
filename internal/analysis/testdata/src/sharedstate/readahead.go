package compute

// future doubles for the tracker's mapFuture: a map computation created
// on the scheduler goroutine and run by a pool worker, possibly long
// before the launch it was created for. It must capture values. This
// one also keeps the tracker, so that its compute can be shown reaching
// back: under readahead that reads state the scheduler is mutating at
// the same moment, and whatever it read would depend on how far ahead
// the pool happened to be.
type future struct {
	t     *tracker
	ratio float64
	res   float64
}

// compute is the pool's entry into the compute plane. The ratio
// captured at creation is the future's own; the tracker's is not.
//
//approx:compute
func (f *future) compute() {
	f.res = f.ratio
	f.res += float64(f.t.launched) // want: purity
	f.res += current(f.t)
}

// current is reachable from compute.
func current(t *tracker) float64 {
	return t.eng.Now() // want: purity purity
}

// viaClosure is the same mistake one closure deep: a literal built
// inside a compute root is checked where it is written.
//
//approx:compute
func (f *future) viaClosure() {
	run := func() float64 {
		return float64(f.t.launched) // want: purity
	}
	f.res = run()
}

// newFuture is scheduler-plane code: reading the tracker while
// creating the future is exactly where the values must be captured.
func newFuture(t *tracker, ratio float64) *future {
	return &future{t: t, ratio: ratio, res: float64(t.launched)}
}

var _ = newFuture

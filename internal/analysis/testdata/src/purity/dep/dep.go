// Package dep sits one package away from the compute root in the
// purity fixture: a closure over one package's calls stops at the
// import boundary, so the violation below is only reachable through
// the whole-program call graph.
package dep

// Calls counts invocations — shared mutable state that makes results
// depend on worker-pool scheduling.
var Calls int

// Process looks pure from the caller's side.
func Process(v float64) float64 {
	Calls++ // want: purity
	return v * 2
}

// Helper is deeper in the chain; it reuses Process, which must be
// reported only once (first chain wins).
func Helper(v float64) float64 {
	return Process(v) + 1
}

package mapreduce

// KeyPrefixes and Merge expose the job's output merge to the external
// test package, whose benchmarks drive the shipped reducers (approx
// imports mapreduce).
var KeyPrefixes = keyPrefixes

// Merge merges sorted runs, with their KeyPrefixes, as completeJob does
// with a single worker.
func Merge(runs [][]KeyEstimate, prefixes [][]uint64) []KeyEstimate {
	n := 0
	for _, r := range runs {
		n += len(r)
	}
	out := make([]KeyEstimate, n)
	mergeByKey(out, runs, prefixes)
	return out
}

// Progress reports the job's counters so far (a copy).
func (h *Handle) Progress() Counters { return h.t.counters }

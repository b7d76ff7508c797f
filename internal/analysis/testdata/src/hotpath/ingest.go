// Stream-ingest shapes: the pipeline's per-record loop must stratify
// and fold with zero allocations per record.
package hot

import "fmt"

// strataLike doubles for an open window's stratum table.
type strataLike struct {
	counts []int64
	vals   []float64
}

// ingest mirrors the stream pipeline's per-record loop: a subslice
// stratify, a table lookup and an append that grows the reservoir's own
// buffer are the sanctioned idiom; the per-record conveniences below
// each allocate.
//
//approx:hotpath
func ingest(lines [][]byte, w *strataLike) int {
	n := 0
	for _, line := range lines {
		stratum := line[:4]                        // subslice: allocation-free
		name := string(stratum)                    // want: hotpath
		tag := fmt.Sprintf("s=%s", stratum)        // want: hotpath
		vals := append(w.vals, float64(len(line))) // want: hotpath
		_ = vals
		w.vals = append(w.vals, float64(len(name)+len(tag))) // hinted append: sanctioned
		w.counts[int(stratum[0])%len(w.counts)]++
		n++
	}
	return n
}

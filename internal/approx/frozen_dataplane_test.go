package approx

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"approxhadoop/internal/mapreduce"
)

// frozenSamplingDataPlane pins a sampled job over generated blocks
// (sampling 0.3, dropping 0.1, two reduces) with the combiner off and
// on: the SHA-256 of the whole Result rendered with %+v (Runtime,
// Energy, Counters, RealSecs, every estimate; %v is bijective on
// float64) followed by one line per trace event — the rendering of
// mapreduce's frozenDataPlane. The hashes were recorded at commit
// 7ad74ce, where this test compared the sampling reader's pull mode
// plus string-keyed shuffle against push mode plus arena shuffle and
// found identical Results and traces — so each row is what both
// produced there: the same draw per line, the same metered Begin/End
// sequence, the same float operations in emitter and estimator.
var frozenSamplingDataPlane = map[string]string{
	"combine=false": "8c41b4d0e8fe0a36933554da194d44d20493fd2aba0f365298e4117f0981a418",
	"combine=true":  "a6840e9a89266fc904f43e1f1acff69a1d211820f59a5c605c27141a19eaec52",
}

// TestSamplingDataPlaneEquivalence keeps the name of the test it
// replaces; what the sampled data plane must now be equivalent to is
// the bytes recorded above, inline and on a pool of four.
func TestSamplingDataPlaneEquivalence(t *testing.T) {
	for _, combine := range []bool{false, true} {
		name := fmt.Sprintf("combine=%v", combine)
		t.Run(name, func(t *testing.T) {
			for _, workers := range []int{1, 4} {
				input, _ := countInput(16, 300, 9)
				job := sumJob(input, NewStatic(0.3, 0.1))
				job.Combine = combine
				job.Workers = workers
				var events []mapreduce.Event
				job.Trace = func(e mapreduce.Event) { events = append(events, e) }
				res, err := mapreduce.Run(approxEngine(), job)
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				h := sha256.New()
				fmt.Fprintf(h, "%+v\n", *res)
				for _, e := range events {
					fmt.Fprintf(h, "%+v\n", e)
				}
				if got, want := hex.EncodeToString(h.Sum(nil)), frozenSamplingDataPlane[name]; got != want {
					t.Errorf("workers=%d: Result+trace sha256 %s, frozen %s", workers, got, want)
				}
			}
		})
	}
}

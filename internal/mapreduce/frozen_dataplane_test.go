package mapreduce

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"testing"

	"approxhadoop/internal/dfs"
)

// equivScenarios builds job configurations that exercise every data
// plane surface: raw and combined emitters, byte-backed and
// generator-backed blocks, multiple reduce partitions, and mid-stream
// state (speculation, drops, retries, degradation) via the pool
// scenarios.
func equivScenarios(t *testing.T) []poolScenario {
	t.Helper()
	scenarios := poolScenarios(t)
	scenarios = append(scenarios,
		poolScenario{"combine", func(t *testing.T) *Job {
			input, _ := wordCountInput(t, 96)
			return &Job{
				Name:      "equiv-combine",
				Input:     input,
				NewMapper: wordCountMapper,
				NewReduce: func(int) ReduceLogic { return SumReduce() },
				Reduces:   3,
				Combine:   true,
				Seed:      31,
			}
		}},
		poolScenario{"generated-blocks", func(t *testing.T) *Job {
			gen := func(idx int, r dfs.RandSource, w io.Writer) error {
				for i := 0; i < 120; i++ {
					if _, err := fmt.Fprintf(w, "k%d %d\n", r.Int63()%7, r.Int63()%5); err != nil {
						return err
					}
				}
				return nil
			}
			return &Job{
				Name:      "equiv-generated",
				Input:     dfs.GeneratedFile("gen.txt", 8, 5, 0, 120, gen),
				NewMapper: wordCountMapper,
				NewReduce: func(int) ReduceLogic { return SumReduce() },
				Reduces:   2,
				Seed:      13,
			}
		}},
	)
	return scenarios
}

// frozenDataPlane pins, per scenario, the SHA-256 of the whole Result
// rendered with %+v (Runtime, Energy, Counters, RealSecs, every
// estimate; %v is bijective on float64) followed by one line per trace
// event. The hashes were recorded at commit 7ad74ce, where the tree
// still carried a second, string-keyed pull-mode data plane and the
// test this one replaces held the two planes to identical Results and
// traces over these same scenarios — so each row is what both planes
// produced there, and what the one that is left must keep producing: raw pairs (Combine off), a hand-written generated-block
// job, straggler speculation and faults-degrade, virtual timings
// included.
var frozenDataPlane = map[string]string{
	"precise":               "dc711ccce73e3e90b0c36e7872d3abcd6a2b95ff79b3aca933ccb100ec8769d4",
	"approx-speculative":    "7fdbde83ef93103a72f878f12eb23d4f5b26b677a383140448d961d7fef87e74",
	"straggler-speculation": "3f56cf49bb9e144db3d3785fcc8ad79eefd2bd55161030e2b594d90e06d727d6",
	"faults-degrade":        "763f9ee5887ad1249f0373ec339e1ace773bafcaddba89d9afae6b23d43e5f74",
	"combine":               "9a2e4fdc7b3a8b8c30b1a7e291d5d74555f3a3670f50c5ff402677afe0253afb",
	"generated-blocks":      "bddb5301bfdfe45b9db5a75246b71ecb960203a8117dc6ec1ba0d22a52f99937",
}

// hashRun renders a run the way frozenDataPlane records it.
func hashRun(res *Result, events []Event) string {
	h := sha256.New()
	fmt.Fprintf(h, "%+v\n", *res)
	for _, e := range events {
		fmt.Fprintf(h, "%+v\n", e)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestFrozenDataPlane runs every scenario inline and on a pool of four
// and compares the hash with the recorded one.
func TestFrozenDataPlane(t *testing.T) {
	for _, sc := range equivScenarios(t) {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			for _, workers := range []int{1, 4} {
				res, events := runPool(t, sc, workers)
				if got, want := hashRun(res, events), frozenDataPlane[sc.name]; got != want {
					t.Errorf("workers=%d: Result+trace sha256 %s, frozen %s", workers, got, want)
				}
			}
		})
	}
}

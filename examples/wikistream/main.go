// Streaming plane: "edits per project, live" over the synthetic
// Wikipedia edit log from examples/wikidistinct, replayed as a
// virtual-clock paced stream whose rate swings 3x on a diurnal curve.
// Each 10-second window closes with a multi-stage-sampling estimate
// and 95% confidence interval; the adaptive controller retunes the
// next window's sampling plan so the error/latency SLO keeps holding
// as the rate swings. Run it twice — the window series is
// byte-identical.
//
//	go run ./examples/wikistream
package main

import (
	"fmt"
	"log"
	"strings"

	approxhadoop "approxhadoop"
)

// makeEditLog builds the same seeded synthetic edit log as
// examples/wikidistinct: one "project<TAB>editor" line per edit,
// skewed so early projects get most of the edits.
func makeEditLog() []byte {
	var sb strings.Builder
	state := uint64(20150313)
	next := func(n uint64) uint64 {
		state = state*6364136223846793005 + 1442695040888963407
		return (state >> 33) % n
	}
	for i := 0; i < 120000; i++ {
		proj := next(40)
		proj = proj * proj / 40 // quadratic skew toward project 0
		editor := next(200 + proj*400)
		fmt.Fprintf(&sb, "proj%02d\ted%05d\n", proj, editor)
	}
	return []byte(sb.String())
}

func main() {
	input := approxhadoop.SplitText("edits.log", makeEditLog(), 1<<15)

	// Edits per window, stratified by project: each project is one
	// substream — a sampling cluster in the window's estimate, exactly
	// the role a map task's block plays in the batch plane.
	query := approxhadoop.StreamQuery{
		Name: "edit-rate",
		Op:   approxhadoop.StreamCount,
		Stratify: func(line []byte) []byte {
			for i, c := range line {
				if c == '\t' {
					return line[:i]
				}
			}
			return nil
		},
		Window: approxhadoop.StreamWindow{Size: 10},
		// A latency budget runs the query under the adaptive controller.
		SLO:      approxhadoop.StreamSLO{MaxLatency: 0.05},
		Capacity: 64,
		Seed:     7,
	}

	pipeline := &approxhadoop.StreamPipeline{
		Query: query,
		Source: approxhadoop.StreamFromFile(input, approxhadoop.StreamOptions{
			Rate: approxhadoop.DiurnalRate(400, 0.5, 120), // 200..600 edits/s
			Seed: 7,
		}),
		MaxWindows: 12,
	}

	fmt.Println("live edits per 10s window (count ± 95% CI):")
	err := pipeline.RunEach(func(w approxhadoop.WindowResult) error {
		tag := ""
		switch {
		case w.Exact:
			tag = "exact"
		case w.Degraded:
			tag = fmt.Sprintf("degraded keep=%.2f", w.Plan.KeepFrac)
		}
		fmt.Printf("[%5.0fs,%5.0fs) %8.0f ± %-7.0f strata=%2d/%2d lat=%.4fs %s\n",
			w.Start, w.End, w.Est.Value, w.Est.Err, w.Processed, w.Strata, w.Latency, tag)
		return nil
	})
	if err != nil {
		log.Fatal(err)
	}
}

// Quickstart: the paper's ApproxWordCount (Figure 3) on the public
// API. The precise Hadoop word count becomes approximate by swapping
// in the MultiStageSampling classes and the ApproxTextInput format —
// the map and reduce logic is untouched.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"strings"

	approxhadoop "approxhadoop"
)

// makeCorpus builds a small synthetic document collection.
func makeCorpus() []byte {
	words := []string{"lorem", "ipsum", "nisi", "sit", "ut", "laboris", "dolor", "amet"}
	var sb strings.Builder
	for doc := 0; doc < 5000; doc++ {
		for w := 0; w <= doc%5; w++ {
			sb.WriteString(words[(doc+w*3)%len(words)])
			sb.WriteByte(' ')
		}
		sb.WriteByte('\n')
	}
	return []byte(sb.String())
}

func wordCount(input *approxhadoop.File) *approxhadoop.Job {
	return &approxhadoop.Job{
		Name:   "ApproxWordCount",
		Input:  input,
		Format: approxhadoop.ApproxTextInput{}, // line #17 of the paper's Figure 3
		NewMapper: func() approxhadoop.Mapper { // the unchanged map()
			return approxhadoop.MapperFunc(func(rec approxhadoop.Record, emit approxhadoop.Emitter) {
				for _, w := range strings.Fields(rec.Value) {
					emit.Emit(w, 1)
				}
			})
		},
		NewReduce: approxhadoop.MultiStageSumReduce, // MultiStageSamplingReducer
		Combine:   true,
		Cost:      approxhadoop.PaperCost(),
		Seed:      1,
	}
}

func main() {
	sys := approxhadoop.NewSystem(approxhadoop.DefaultCluster())
	input := approxhadoop.SplitText("documents.txt", makeCorpus(), 4096)
	if err := sys.Store(input); err != nil {
		log.Fatal(err)
	}

	precise, err := sys.Run(wordCount(input))
	if err != nil {
		log.Fatal(err)
	}
	// 10% input sampling + 25% task dropping, as a user would specify.
	apx, err := sys.Submit(wordCount(input), approxhadoop.Approximation{SampleRatio: 0.10, DropRatio: 0.25})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("precise:     %6.1f simulated seconds (%d items)\n",
		precise.Runtime, precise.Counters.ItemsProcessed)
	fmt.Printf("approximate: %6.1f simulated seconds (%d items, %d of %d maps)\n\n",
		apx.Runtime, apx.Counters.ItemsProcessed,
		apx.Counters.MapsCompleted, apx.Counters.MapsTotal)
	fmt.Printf("%-10s %10s %24s\n", "word", "precise", "approximate (95% CI)")
	for _, p := range precise.Outputs {
		a, ok := apx.Output(p.Key)
		if !ok {
			fmt.Printf("%-10s %10.0f %24s\n", p.Key, p.Est.Value, "(missed by sampling)")
			continue
		}
		fmt.Printf("%-10s %10.0f %16.0f ± %-6.0f\n", p.Key, p.Est.Value, a.Est.Value, a.Est.Err)
	}
}

// Log analysis with a target error bound: Project Popularity over a
// synthetic Wikipedia access log. The user asks for ±1% at 95%
// confidence; ApproxHadoop runs the first wave precisely, solves the
// Section 4.4 optimization, and drops/samples the rest.
//
//	go run ./examples/loganalysis
package main

import (
	"fmt"
	"log"
	"sort"

	"approxhadoop"
	"approxhadoop/internal/apps"
	"approxhadoop/internal/workload"
)

func main() {
	// ~740 blocks, like the paper's one-week 46GB log (nine waves on
	// the 80-slot cluster), with laptop-scale per-block record counts.
	logFile := workload.AccessLog{
		Blocks: 740, LinesPerBlock: 1000, Projects: 400, Pages: 20000, Seed: 9,
	}.File("wiki-access-log")

	sys := approxhadoop.NewSystem(approxhadoop.DefaultCluster())
	precise, apx, err := sys.RunPair(func() *approxhadoop.Job {
		return apps.ProjectPopularity(logFile, apps.Options{Cost: approxhadoop.PaperCost(), Seed: 3})
	}, approxhadoop.Approximation{TargetError: 0.01})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("precise:   %.1f s simulated, %d/%d items\n",
		precise.Runtime, precise.Counters.ItemsProcessed, precise.Counters.ItemsTotal)
	fmt.Printf("±1%% bound: %.1f s simulated, %d/%d items, %d/%d maps -> %.0f%% faster\n\n",
		apx.Runtime, apx.Counters.ItemsProcessed, apx.Counters.ItemsTotal,
		apx.Counters.MapsCompleted, apx.Counters.MapsTotal,
		(1-apx.Runtime/precise.Runtime)*100)

	outs := append([]approxhadoop.KeyEstimate(nil), apx.Outputs...)
	sort.Slice(outs, func(i, j int) bool { return outs[i].Est.Value > outs[j].Est.Value })
	fmt.Printf("%-10s %14s %22s\n", "project", "precise", "approximate (95% CI)")
	for i, o := range outs {
		if i == 10 {
			break
		}
		p, _ := precise.Output(o.Key)
		fmt.Printf("%-10s %14.0f %14.0f ± %-8.0f\n", o.Key, p.Est.Value, o.Est.Value, o.Est.Err)
	}
}

// Datacenter placement with extreme-value (GEV) error bounds: each map
// task runs an independent simulated-annealing search for the lowest
// cost placement; the reduce fits a GEV distribution to the per-task
// minima and terminates the job as soon as the 95% interval around the
// estimated achievable minimum is within 5% (Section 3.2 / Figure 2).
//
//	go run ./examples/dcplacement
package main

import (
	"fmt"
	"log"

	"approxhadoop"
	"approxhadoop/internal/approx"
	"approxhadoop/internal/apps"
	"approxhadoop/internal/cluster"
	"approxhadoop/internal/mapreduce"
	"approxhadoop/internal/workload"
)

func main() {
	seeds := workload.SearchSeeds("search-seeds", 80, 7)
	cfg := apps.DCPlacementConfig{Geo: apps.DefaultGeography(), Iters: 2500}

	run := func(ctl mapreduce.Controller) *mapreduce.Result {
		cc := cluster.DefaultConfig()
		cc.MapSlotsPerServer = 4 // the paper's most efficient CPU-bound setting
		eng := cluster.New(cc)
		res, err := mapreduce.Run(eng, apps.DCPlacement(seeds, cfg, apps.Options{
			Controller: ctl, Cost: approxhadoop.PaperCost(), Seed: 5,
		}))
		if err != nil {
			log.Fatal(err)
		}
		return res
	}

	precise := run(nil)
	apx := run(&approx.TargetErrorGEV{Target: 0.05, MinMaps: 12})

	p := precise.Outputs[0].Est
	a := apx.Outputs[0].Est
	fmt.Printf("geography: %dx%d grid, %d datacenters, %.0f ms latency cap\n\n",
		cfg.Geo.Rows, cfg.Geo.Cols, cfg.Geo.K, cfg.Geo.MaxLatencyMS)
	fmt.Printf("all %d searches:    min cost %.1f in %.1f s simulated\n",
		precise.Counters.MapsCompleted, p.Value, precise.Runtime)
	fmt.Printf("GEV early stop:     min cost %.1f ± %.1f after %d searches in %.1f s (%.0f%% faster)\n",
		a.Value, a.Err, apx.Counters.MapsCompleted, apx.Runtime,
		(1-apx.Runtime/precise.Runtime)*100)
	fmt.Printf("maps killed/dropped when the 5%% bound was reached: %d + %d\n",
		apx.Counters.MapsKilled, apx.Counters.MapsDropped)
}

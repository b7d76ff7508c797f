// Energy saving with task dropping and ACPI S3 (Section 5.4 / Figure
// 12): a single-wave job cannot finish earlier by dropping maps, but
// the servers whose maps were dropped go to sleep, cutting energy.
//
//	go run ./examples/energysaving
package main

import (
	"fmt"
	"log"

	"approxhadoop"
	"approxhadoop/internal/apps"
	"approxhadoop/internal/workload"
)

func main() {
	// 80 blocks over 80 map slots: exactly one wave.
	web := workload.WebLog{
		Blocks: 80, LinesPerBlock: 4000, Clients: 3000,
		Attackers: 40, AttackRate: 0.02, Seed: 11,
	}.File("webserver-log")

	sys := approxhadoop.NewSystem(approxhadoop.DefaultCluster())
	fmt.Printf("%-12s %12s %12s %12s %16s\n", "maps run", "runtime(s)", "energy(Wh)", "S3 (Wh)", "worst 95% CI")
	for _, drop := range []float64{0, 0.25, 0.5, 0.75} {
		// Concentrate the reduces on two servers so map-free servers
		// can actually enter S3.
		job := apps.WebRequestRate(web, apps.Options{Cost: approxhadoop.PaperCost(), Seed: 2, SleepIdle: true, Reduces: 2})
		res, err := sys.Submit(job, approxhadoop.Approximation{DropRatio: drop})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-12d %12.1f %12.2f %12.2f %15.2f%%\n",
			res.Counters.MapsCompleted, res.Runtime, res.EnergyWh,
			res.Energy.SleepJ/3600, res.MaxRelErr()*100)
	}
	fmt.Println("\nruntime stays flat (single wave) while energy falls with dropping: the")
	fmt.Println("servers whose maps were dropped transition to S3 for the rest of the job.")
}

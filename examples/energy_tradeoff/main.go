// This example reproduces the Figure 17 trade-off on one benchmark: how
// much performance each runahead scheme buys, and what it costs in energy.
// Traditional runahead keeps the front end burning power to fetch filler
// operations; the runahead buffer clock-gates it and loops only the filtered
// chain, turning an energy loss into a saving.
package main

import (
	"fmt"
	"log"

	"runaheadsim"
)

func main() {
	const bench = "mcf"
	fmt.Printf("%-22s %8s %10s %14s %12s\n", "system", "IPC", "IPC gain", "energy (uJ)", "energy diff")
	for _, system := range []string{"Base", "RA", "RA-Enh", "RB", "RB+CC", "Hybrid"} {
		res, err := runaheadsim.Run(runaheadsim.Config{
			Benchmark:   bench,
			System:      system,
			MeasureUops: 80_000,
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-22s %8.3f %9.1f%% %14.1f %11.1f%%\n",
			system, res.IPC, res.IPCDeltaPct, res.EnergyUJ, res.EnergyDeltaPct)
	}
	fmt.Println("\nthe buffer converts traditional runahead's front-end energy overhead into a")
	fmt.Println("saving: it fetches nothing, loops a <=32-uop chain, and still runs further")
	fmt.Println("ahead (Section 6.3).")
}

// Quickstart: run one benchmark under the baseline, under traditional
// runahead, and under the paper's runahead buffer with chain cache (its most
// energy-efficient system), and print the comparison — the 60-second tour of
// the public API.
package main

import (
	"fmt"
	"log"

	"runaheadsim"
)

func main() {
	const bench = "mcf"

	run := func(system string) runaheadsim.Result {
		res, err := runaheadsim.Run(runaheadsim.Config{
			Benchmark:   bench,
			System:      system,
			MeasureUops: 100_000,
		})
		if err != nil {
			log.Fatal(err)
		}
		return res
	}
	base := run("Base")
	trad := run("RA")
	buf := run("RB+CC")

	fmt.Printf("benchmark: %s (MPKI %.1f — %s spends %.0f%% of baseline cycles stalled on DRAM)\n\n",
		bench, base.MPKI, bench, base.MemStallPct)
	fmt.Printf("%-26s %8s %10s %13s\n", "system", "IPC", "IPC gain", "energy diff")
	for _, r := range []struct {
		name string
		res  runaheadsim.Result
	}{
		{"baseline", base},
		{"traditional runahead", trad},
		{"runahead buffer + CC", buf},
	} {
		fmt.Printf("%-26s %8.3f %9.1f%% %12.1f%%\n", r.name, r.res.IPC, r.res.IPCDeltaPct, r.res.EnergyDeltaPct)
	}
	fmt.Printf("\nthe buffer ran %d intervals generating %.1f misses each, with the front end\n",
		buf.RunaheadIntervals, buf.MissesPerInterval)
	fmt.Printf("clock-gated for %.0f%% of all cycles — more memory-level parallelism than\n",
		100*float64(buf.RunaheadBufferCycles)/float64(buf.Cycles))
	fmt.Printf("traditional runahead (%.1f misses/interval) at lower energy\n", trad.MissesPerInterval)
}

// This example reproduces the Section 6.2 story on two benchmarks: the
// stream prefetcher covers sequential access (libquantum) so runahead adds
// little on top, while prefetcher-hostile strides (zeusmp) leave all the
// latency for runahead to hide — which is why the paper evaluates the
// techniques both with and without prefetching.
package main

import (
	"fmt"
	"log"

	"runaheadsim"
)

func ipc(bench, system string) float64 {
	res, err := runaheadsim.Run(runaheadsim.Config{
		Benchmark:   bench,
		System:      system,
		MeasureUops: 80_000,
	})
	if err != nil {
		log.Fatal(err)
	}
	return res.IPC
}

func main() {
	fmt.Printf("%-12s %10s %10s %14s %16s\n", "benchmark", "base", "PF only", "hybrid only", "hybrid + PF")
	for _, bench := range []string{"libquantum", "zeusmp"} {
		base := ipc(bench, "Base")
		pf := ipc(bench, "PF")
		hy := ipc(bench, "Hybrid")
		both := ipc(bench, "Hybrid+PF")
		fmt.Printf("%-12s %10.3f %9.0f%% %13.0f%% %15.0f%%\n",
			bench, base, 100*(pf/base-1), 100*(hy/base-1), 100*(both/base-1))
	}
	fmt.Println("\npercentages are IPC gains over the no-prefetching baseline (Figure 15's axes);")
	fmt.Println("the prefetcher wins on the sequential stream, runahead wins on the hostile")
	fmt.Println("stride, and the combination takes the best of both.")
}

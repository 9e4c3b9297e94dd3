package runaheadsim_test

import (
	"fmt"

	"runaheadsim"
)

// The suite mirrors SPEC CPU2006: 29 benchmarks, 13 of them medium or high
// memory intensity (Table 2).
func ExampleBenchmarks() {
	fmt.Println(len(runaheadsim.Benchmarks()), "benchmarks,",
		len(runaheadsim.MediumHighBenchmarks()), "medium+high")
	fmt.Println("most intense:", runaheadsim.Benchmarks()[28])
	// Output:
	// 29 benchmarks, 13 medium+high
	// most intense: mcf
}

// Runs are deterministic, so even derived quantities are stable. This
// example checks the paper's qualitative claim on mcf rather than printing
// raw numbers: the runahead buffer must beat the baseline.
func ExampleRun() {
	base, err := runaheadsim.Run(runaheadsim.Config{
		Benchmark: "mcf", MeasureUops: 20_000, WarmupUops: 20_000,
	})
	if err != nil {
		panic(err)
	}
	buf, err := runaheadsim.Run(runaheadsim.Config{
		Benchmark: "mcf", System: "RB+CC",
		MeasureUops: 20_000, WarmupUops: 20_000,
	})
	if err != nil {
		panic(err)
	}
	fmt.Println("buffer faster:", buf.IPC > base.IPC)
	fmt.Println("entered runahead:", buf.RunaheadIntervals > 0)
	// Output:
	// buffer faster: true
	// entered runahead: true
}

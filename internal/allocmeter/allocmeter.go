// Package allocmeter measures what a call allocates, for tests that bound
// what decoding hostile input may cost and for the allocation gates.
package allocmeter

import "runtime"

// Bytes returns the fewest heap bytes any of three calls of fn allocated.
// runtime.ReadMemStats flushes every processor's allocation cache, so each
// reading counts objects, not the whole spans the runtime/metrics heap
// counter advances by; the minimum drops what other goroutines (a fuzzing
// worker's own among them) allocate while fn runs.
func Bytes(fn func()) uint64 {
	var ms runtime.MemStats
	least := ^uint64(0)
	for i := 0; i < 3; i++ {
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		fn()
		runtime.ReadMemStats(&ms)
		least = min(least, ms.TotalAlloc-before)
	}
	return least
}

// Mallocs returns the total number of heap allocations runs calls of fn
// made, after one warm-up call that is not counted. It is
// testing.AllocsPerRun without the division: a mean rounded down reads 0
// for a path that allocates on fewer than every run, so a gate that wants
// none compares this total with 0. GOMAXPROCS is 1 while it measures, so
// no other goroutine of the test binary runs in between.
func Mallocs(runs int, fn func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	fn()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.Mallocs
	for i := 0; i < runs; i++ {
		fn()
	}
	runtime.ReadMemStats(&ms)
	return ms.Mallocs - before
}

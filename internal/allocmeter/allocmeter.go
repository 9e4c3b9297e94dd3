// Package allocmeter measures the heap bytes a call allocates, for tests
// that bound what decoding hostile input may cost.
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

package core

import (
	"testing"

	"runaheadsim/internal/allocmeter"
)

// The runahead gates run whole cycles of a warm, memory-bound core: every
// runahead entry (chain generation, the chain-cache probe, the RAS and
// register checkpoint), every buffer-fed uop, and every exit (the wholesale
// flush and restore) must reuse storage the core already owns.

// raBlock is the unit the runahead gates measure. The gather kernel enters
// and leaves runahead every hundred-odd cycles, so each block holds several
// intervals. The gates count every allocation over all measured blocks
// (allocmeter.Mallocs), so one made once in the whole measurement shows.
const raBlock = 1024

// runaheadRig returns a core in mode (with the runahead enhancements if enh)
// on the gather kernel, run until its DynInst pool, event-wheel slots, chain
// buffers, recycle pools and, with enh, its miss-age table have reached
// their working size.
func runaheadRig(mode Mode, enh bool) *Core {
	cfg := testConfig(mode)
	cfg.Enhancements = enh
	c := New(cfg, gatherLoop(8))
	for c.now < 300_000 {
		c.Cycle()
	}
	return c
}

// TestRunaheadAllocatesNothing gates each runahead system in steady state,
// and checks that every measured block entered and left runahead.
func TestRunaheadAllocatesNothing(t *testing.T) {
	for _, tc := range []struct {
		name string
		mode Mode
		enh  bool
	}{
		{"RA", ModeTraditional, false},
		{"RB", ModeBuffer, false},
		{"RB+CC", ModeBufferCC, false},
		{"Hybrid", ModeHybrid, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := runaheadRig(tc.mode, tc.enh)
			st := c.Stats()
			quiet := 0
			chains, buffered := st.ChainsGenerated+st.ChainCacheHits, st.BufferUopsIssued
			allocs := allocmeter.Mallocs(10, func() {
				entries, exits := st.RunaheadIntervals, st.RunaheadIntervalLens.Count
				for i := 0; i < raBlock; i++ {
					c.Cycle()
				}
				if st.RunaheadIntervals == entries || st.RunaheadIntervalLens.Count == exits {
					quiet++
				}
			})
			if allocs != 0 {
				t.Fatalf("%d %s cycles allocate %d times, want 0", raBlock, tc.name, allocs)
			}
			if quiet != 0 {
				t.Fatalf("%d of 11 blocks lacked a runahead entry or exit", quiet)
			}
			if tc.mode != ModeTraditional && (st.ChainsGenerated+st.ChainCacheHits == chains || st.BufferUopsIssued == buffered) {
				t.Fatal("the blocks neither generated nor reused a chain, or fed no uop from the buffer")
			}
		})
	}
}

// BenchmarkRunaheadCycles times raBlock steady-state cycles of the Hybrid
// system on the gather kernel, where both runahead flavours, the chain cache
// and the enhancements run; allocs/op must read 0.
func BenchmarkRunaheadCycles(b *testing.B) {
	c := runaheadRig(ModeHybrid, true)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < raBlock; j++ {
			c.Cycle()
		}
	}
}

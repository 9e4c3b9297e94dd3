package core_test

import (
	"bytes"
	"testing"

	"runaheadsim/internal/core"
	"runaheadsim/internal/prog"
	"runaheadsim/internal/workload"
)

// TestReferenceKernelsRealWorkloads checks the two preserved reference
// kernels against the default machine on the real memory-bound workloads:
// the ROB-scan scheduler (SchedScan) must match the event-driven one, and
// the per-cycle clock (ClockTick, which also selects the DRAM reference
// scan) must match the warped clock. Each pair must finish on the same cycle
// and drain to byte-identical snapshots, hence identical Stats. The lockstep
// tests compare cycle by cycle on synthetic programs; this covers the
// kernels the figures are made of, in the baseline and both runahead-buffer
// modes. A core resumed by NewFromArch from the interpreter's entry state
// must match too: the harness builds every detailed run that way, full-detail
// runs included.
func TestReferenceKernelsRealWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("differential simulation is slow")
	}
	const uops = 60_000
	for _, bench := range []string{"mcf", "milc", "omnetpp", "libquantum", "lbm"} {
		p, err := workload.Load(bench)
		if err != nil {
			t.Fatal(err)
		}
		for _, mode := range []core.Mode{core.ModeNone, core.ModeBuffer, core.ModeBufferCC} {
			t.Run(bench+"/"+mode.String(), func(t *testing.T) {
				run := func(c *core.Core) (int64, []byte) {
					t.Helper()
					c.Run(uops)
					if err := c.Drain(); err != nil {
						t.Fatal(err)
					}
					snap, err := c.Snapshot()
					if err != nil {
						t.Fatal(err)
					}
					return c.Now(), snap
				}
				def := testConfig(mode)
				wantNow, wantSnap := run(core.New(def, p))

				scan := def
				scan.Scheduler = core.SchedScan
				tick := def
				tick.ClockMode = core.ClockTick
				for _, ref := range []struct {
					name string
					mk   func() *core.Core
				}{
					{"scan scheduler", func() *core.Core { return core.New(scan, p) }},
					{"tick clock", func() *core.Core { return core.New(tick, p) }},
					{"entry-state resume", func() *core.Core { return core.NewFromArch(def, p, prog.NewInterp(p).ArchState()) }},
				} {
					now, snap := run(ref.mk())
					if now != wantNow {
						t.Errorf("%s finished at cycle %d, default machine at %d", ref.name, now, wantNow)
					}
					if !bytes.Equal(snap, wantSnap) {
						t.Errorf("%s drained snapshot differs from the default machine's (%d vs %d bytes)",
							ref.name, len(snap), len(wantSnap))
					}
				}
			})
		}
	}
}

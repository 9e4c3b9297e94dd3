package multicore

import (
	"bytes"
	"testing"

	"runaheadsim/internal/allocmeter"
	"runaheadsim/internal/core"
	"runaheadsim/internal/prog"
	"runaheadsim/internal/snapshot"
	"runaheadsim/internal/workload"
)

// testConfig is the default machine in the given runahead mode with a
// deadlock watchdog, so a wedged cluster dies loudly instead of hanging the
// suite.
func testConfig(mode core.Mode) core.Config {
	cfg := core.DefaultConfig()
	cfg.Mode = mode
	cfg.WatchdogCycles = 2_000_000
	return cfg
}

// stateBytes serializes a core's core-only section plus the hierarchy it is
// attached to — the same calls on the single-core machine and on a cluster
// member, so byte equality compares total machine state independent of the
// outer container format.
func stateBytes(t *testing.T, c *core.Core) []byte {
	t.Helper()
	w := &snapshot.Writer{}
	if err := c.SnapshotCoreTo(w); err != nil {
		t.Fatalf("core snapshot: %v", err)
	}
	if err := c.Hierarchy().SnapshotTo(w); err != nil {
		t.Fatalf("hierarchy snapshot: %v", err)
	}
	return w.Bytes()
}

// TestSingleCoreEquivalence is the multicore-equivalence gate: a 1-core
// cluster must be bit-identical — final cycle, statistics, and snapshot
// bytes — to the existing single-core machine, in all five runahead modes
// and under both clocks. This is what licenses every single-core result to
// stand unchanged after the N-requestor refactor.
func TestSingleCoreEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("differential simulation is slow")
	}
	const quota = 20_000
	modes := []core.Mode{core.ModeNone, core.ModeTraditional, core.ModeBuffer, core.ModeBufferCC, core.ModeHybrid}
	for i, mode := range modes {
		for _, clock := range []core.ClockMode{core.ClockWarp, core.ClockTick} {
			cfg := testConfig(mode)
			cfg.ClockMode = clock
			// Alternate between a DRAM-bound and a compute-lean kernel so both
			// regimes (warp-heavy and per-cycle-heavy) are covered.
			bench := "libquantum"
			if i%2 == 1 {
				bench = "zeusmp"
			}
			tag := mode.String() + "/" + clock.String() + "/" + bench

			sc := core.New(cfg, workload.MustLoad(bench))
			sc.Run(quota)
			if err := sc.Drain(); err != nil {
				t.Fatalf("%s: single-core drain: %v", tag, err)
			}

			cl := New(cfg, []*prog.Program{workload.MustLoad(bench)})
			cl.Run(quota)
			if err := cl.Drain(); err != nil {
				t.Fatalf("%s: cluster drain: %v", tag, err)
			}
			mc := cl.Cores()[0]

			if sc.Now() != mc.Now() || cl.Now() != sc.Now() {
				t.Fatalf("%s: single-core finished at cycle %d, 1-core cluster at %d (cluster clock %d)",
					tag, sc.Now(), mc.Now(), cl.Now())
			}
			if sc.Stats().Committed != mc.Stats().Committed || sc.Stats().Cycles != mc.Stats().Cycles {
				t.Fatalf("%s: stats diverge: single committed=%d cycles=%d, cluster committed=%d cycles=%d",
					tag, sc.Stats().Committed, sc.Stats().Cycles, mc.Stats().Committed, mc.Stats().Cycles)
			}
			if sc.ArchRegs() != mc.ArchRegs() {
				t.Fatalf("%s: architectural register state diverged", tag)
			}
			sb, mb := stateBytes(t, sc), stateBytes(t, mc)
			if !bytes.Equal(sb, mb) {
				t.Fatalf("%s: machine state bytes differ (%d vs %d bytes)", tag, len(sb), len(mb))
			}
		}
	}
}

// TestClusterWarpTickLockstep extends the clock-warp acceptance invariant to
// the shared clock: a 2-core mix stepped under the warped clock must finish
// at the same cycle with the same statistics and snapshot bytes as the
// per-cycle reference, and the warp must actually fire on the DRAM-bound mix
// (otherwise the equivalence is vacuous).
func TestClusterWarpTickLockstep(t *testing.T) {
	if testing.Short() {
		t.Skip("differential simulation is slow")
	}
	const quota = 10_000
	mix := []string{"libquantum", "mcf"}
	run := func(clock core.ClockMode) (*Cluster, []byte) {
		cfg := testConfig(core.ModeBuffer)
		cfg.ClockMode = clock
		progs := make([]*prog.Program, len(mix))
		for i, b := range mix {
			progs[i] = workload.MustLoad(b)
		}
		cl := New(cfg, progs)
		cl.Run(quota)
		snap, err := cl.Snapshot()
		if err != nil {
			t.Fatalf("%v: %v", clock, err)
		}
		return cl, snap
	}
	wc, wSnap := run(core.ClockWarp)
	tc, tSnap := run(core.ClockTick)
	if wc.Now() != tc.Now() {
		t.Fatalf("warp clock finished at cycle %d, tick at %d", wc.Now(), tc.Now())
	}
	for i := range mix {
		if wf, tf := wc.FinishCycle(i), tc.FinishCycle(i); wf != tf {
			t.Fatalf("core %d finish cycle diverges: warp %d, tick %d", i, wf, tf)
		}
	}
	if !bytes.Equal(wSnap, tSnap) {
		t.Fatalf("cluster snapshots differ between clock modes (%d vs %d bytes)", len(wSnap), len(tSnap))
	}
	if warps, skipped := wc.WarpStats(); warps == 0 || skipped == 0 {
		t.Fatalf("DRAM-bound 2-core mix never warped (warps=%d skipped=%d)", warps, skipped)
	}
}

// TestDeterministicInterleaving pins the shared-LLC grant order: two
// identical runs of the same 2-core mix must agree on every statistic and
// every snapshot byte. The arbiter is pure FIFO + rotating pointer — no map
// iteration, no host scheduling — so any divergence is a determinism bug.
func TestDeterministicInterleaving(t *testing.T) {
	const quota = 5_000
	run := func() []byte {
		progs := []*prog.Program{workload.MustLoad("milc"), workload.MustLoad("omnetpp")}
		cl := New(testConfig(core.ModeHybrid), progs)
		cl.Run(quota)
		snap, err := cl.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		return snap
	}
	a, b := run(), run()
	if !bytes.Equal(a, b) {
		t.Fatalf("identical 2-core runs produced different snapshots (%d vs %d bytes)", len(a), len(b))
	}
}

// TestNoStarvation is the arbitration fairness regression: one core running
// a runahead-buffer prefetch stream must not indefinitely block the other
// core's demand misses at the shared LLC. The rotating grant pointer
// advances past every granted requestor, so each queued access waits at most
// one grant round; the test bounds the observed average arbitration wait and
// requires both cores to make continuous forward progress.
func TestNoStarvation(t *testing.T) {
	const quota = 8_000
	progs := []*prog.Program{workload.MustLoad("libquantum"), workload.MustLoad("mcf")}
	cl := New(testConfig(core.ModeBuffer), progs)
	cl.Run(quota)
	if err := cl.CheckInvariants(true); err != nil {
		t.Fatalf("invariants after mix run: %v", err)
	}
	h := cl.Hierarchy()
	for i := range progs {
		rs := h.Req(i)
		if rs.LLCArbGrants == 0 {
			t.Fatalf("core %d never got an LLC grant (loads=%d misses=%d)", i, rs.Loads, rs.LLCDemandMisses)
		}
		// With 2 requestors and 2 LLC ports the arbiter is effectively
		// contention-free on average; allow generous slack for bursts. A
		// starved requestor would show waits orders of magnitude higher.
		avgWait := float64(rs.LLCArbWaitCycles) / float64(rs.LLCArbGrants)
		if avgWait > 50 {
			t.Fatalf("core %d averages %.1f cycles of LLC arbitration wait — starvation", i, avgWait)
		}
		if cl.FinishCycle(i) == 0 {
			t.Fatalf("core %d never reached its quota", i)
		}
	}
}

// TestClusterSnapshotRoundTrip checks the mcluster container: snapshot a
// 2-core mix mid-run, restore into a fresh cluster, and require (a) an
// immediate re-snapshot to be byte-identical (round-trip digest) and (b) the
// restored cluster to continue to quota bit-identically to the original.
func TestClusterSnapshotRoundTrip(t *testing.T) {
	cfg := testConfig(core.ModeBufferCC)
	mix := []string{"soplex", "sphinx3"}
	load := func() []*prog.Program {
		progs := make([]*prog.Program, len(mix))
		for i, b := range mix {
			progs[i] = workload.MustLoad(b)
		}
		return progs
	}

	cl := New(cfg, load())
	cl.Run(3_000)
	snap, err := cl.Snapshot()
	if err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	digest := snapshot.HashBytes(snap)

	rc, err := RestoreCluster(snap, cfg, load())
	if err != nil {
		t.Fatalf("restore: %v", err)
	}
	resnap, err := rc.Snapshot()
	if err != nil {
		t.Fatalf("re-snapshot: %v", err)
	}
	if snapshot.HashBytes(resnap) != digest {
		t.Fatalf("round-trip digest mismatch: %#x vs %#x (%d vs %d bytes)",
			snapshot.HashBytes(resnap), digest, len(resnap), len(snap))
	}

	// Continue both to a larger quota; they must stay in lockstep.
	cl.Run(6_000)
	rc.Run(6_000)
	a, err := cl.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	b, err := rc.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("original and restored clusters diverged after continuation")
	}
}

// TestRestoreTopologyMismatch pins the container's self-verification: a
// 2-core snapshot must refuse to restore into a 1-core cluster.
func TestRestoreTopologyMismatch(t *testing.T) {
	cfg := testConfig(core.ModeNone)
	cl := New(cfg, []*prog.Program{workload.MustLoad("milc"), workload.MustLoad("soplex")})
	cl.Run(1_000)
	snap, err := cl.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RestoreCluster(snap, cfg, []*prog.Program{workload.MustLoad("milc")}); err == nil {
		t.Fatal("2-core snapshot restored into a 1-core cluster without error")
	}
}

// TestClusterRunaheadAllocatesNothing gates a warm 2-core runahead-buffer
// cluster: shared-LLC arbitration, both cores' runahead entries and exits,
// and the cluster warp allocate nothing in steady state. Each measured
// block must hold a runahead entry and an exit, and each core must enter
// runahead over the blocks.
func TestClusterRunaheadAllocatesNothing(t *testing.T) {
	const block = 2048
	cl := New(testConfig(core.ModeBuffer), []*prog.Program{workload.MustLoad("mcf"), workload.MustLoad("milc")})
	for cl.Now() < 300_000 {
		cl.Step()
	}
	totals := func() (entries, exits uint64) {
		for _, c := range cl.Cores() {
			entries += c.Stats().RunaheadIntervals
			exits += c.Stats().RunaheadIntervalLens.Count
		}
		return entries, exits
	}
	var before [2]uint64
	for i, c := range cl.Cores() {
		before[i] = c.Stats().RunaheadIntervals
	}
	quiet := 0
	allocs := allocmeter.Mallocs(10, func() {
		entries, exits := totals()
		for i := 0; i < block; i++ {
			cl.Step()
		}
		if e, x := totals(); e == entries || x == exits {
			quiet++
		}
	})
	if allocs != 0 {
		t.Fatalf("%d cluster cycles allocate %d times, want 0", block, allocs)
	}
	if quiet != 0 {
		t.Fatalf("%d of 11 blocks lacked a runahead entry or exit", quiet)
	}
	for i, c := range cl.Cores() {
		if c.Stats().RunaheadIntervals == before[i] {
			t.Fatalf("core %d never entered runahead in the measured blocks", i)
		}
	}
}

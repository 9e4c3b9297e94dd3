package core

import (
	"bytes"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"runaheadsim/internal/cache"
	"runaheadsim/internal/isa"
	"runaheadsim/internal/memsys"
	"runaheadsim/internal/prog"
	"runaheadsim/internal/snapshot"
)

// stormKernel keeps the L1D MSHR file full, so loads are refused and held,
// and drives every event that can wake a held load. Each iteration:
//   - heads with a gather load that misses to DRAM, so runahead enters and
//     exits over held loads (and buffer mode has a chain to loop);
//   - loads eight fresh stream lines, the MSHR pressure;
//   - stores to a ninth whose address comes out of a three-deep div chain,
//     then loads that line: in runahead the load issues without waiting for
//     the address, is refused, and forwards once the store computes it;
//   - branches on a pseudo-random bit one more div down the chain, so the
//     branch resolves after the store and mispredicts about half the time,
//     squashing the loads of four more lines held on its predicted path.
func stormKernel() *prog.Program {
	b := prog.NewBuilder("storm")
	const slots = 1 << 14
	const streamBytes = stormStreamBytes
	big := b.Alloc(slots*2048, 64)
	stream := b.Alloc(streamBytes, 64)
	if stream != stormStreamLo {
		panic("storm: the stream region moved")
	}
	const rI, rBig, rMask, rG, rS, rStream, rOne, rSeed, rQ, rT, rAcc, rV, rA = 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13
	entry := b.Block("entry")
	loop := b.Block("loop")
	fall := b.Block("fall")
	taken := b.Block("taken")
	entry.Movi(rI, 0).Movi(rBig, int64(big)).Movi(rMask, slots-1).Movi(rStream, int64(stream)).
		Movi(rOne, 1).Movi(rSeed, 12345).Movi(rAcc, 0).Jmp(loop)
	loop.OpI(isa.MULI, rG, rI, 40503).Op(isa.AND, rG, rG, rMask).
		OpI(isa.MULI, rG, rG, 2048).Add(rG, rG, rBig).Ld(rG, rG, 0).Add(rAcc, rAcc, rG).
		OpI(isa.MULI, rS, rI, 13*64).OpI(isa.ANDI, rS, rS, streamBytes-1).Add(rS, rS, rStream)
	for j := int64(1); j <= 8; j++ {
		loop.Ld(rV, rS, 64*j).Add(rAcc, rAcc, rV)
	}
	loop.Op(isa.DIV, rQ, rSeed, rOne).Op(isa.DIV, rQ, rQ, rOne).Op(isa.DIV, rQ, rQ, rOne).
		OpI(isa.ANDI, rA, rQ, 0).Add(rA, rA, rS).St(rA, 0, rI).Ld(rV, rS, 0).Add(rAcc, rAcc, rV).
		Op(isa.DIV, rT, rQ, rOne).OpI(isa.ANDI, rT, rT, 1<<16).
		OpI(isa.MULI, rSeed, rSeed, 1103515245).Addi(rSeed, rSeed, 12345).
		Bnez(rT, taken)
	for j := int64(9); j <= 12; j++ {
		fall.Ld(rV, rS, 64*j).Add(rAcc, rAcc, rV)
	}
	taken.Addi(rI, rI, 1).Jmp(loop)
	return b.MustBuild()
}

// The storm kernel's stores all land in its stream region.
const (
	stormStreamBytes = 1 << 24
	stormStreamLo    = isa.DataBase + (1<<14)*2048
	stormStreamHi    = stormStreamLo + stormStreamBytes
)

// heldCoverage counts, on the bulk-counting core, the cycles on which each
// wake source met loads held from the cycle before.
type heldCoverage struct {
	held, fill, forward, squash, entry, exit int
}

func (v heldCoverage) String() string {
	return fmt.Sprintf("%d cycles with held loads: %d L1D fills, %d forwards, %d squashes, %d runahead entries, %d exits",
		v.held, v.fill, v.forward, v.squash, v.entry, v.exit)
}

// covered reports that every wake source met held loads: fills and squashes
// on any core; forwards, runahead entry and exit on a runahead core (outside
// runahead a load waits for older store addresses, so it never forwards
// after a refusal).
func (v heldCoverage) covered(runahead bool) bool {
	return v.fill > 0 && v.squash > 0 && (!runahead || v.forward > 0 && v.entry > 0 && v.exit > 0)
}

// observe steps c through one cycle via step and records which wake sources
// met the loads it held going in.
func (v *heldCoverage) observe(c *Core, step func()) {
	in := append([]schedRef(nil), c.held...)
	fills, wasActive := c.h.L1DFillsR(c.memReq), c.ra.active
	step()
	if len(in) == 0 {
		return
	}
	v.held++
	if c.h.L1DFillsR(c.memReq) != fills {
		v.fill++
	}
	exited := wasActive && !c.ra.active
	if !wasActive && c.ra.active {
		v.entry++
	}
	if exited {
		v.exit++
	}
	// A live load that left the queue without reaching memory forwarded,
	// from a store or the runahead cache.
	forwarded, squashed := false, false
	for _, r := range in {
		switch {
		case r.d.gen != r.gen:
			squashed = squashed || !exited
		case !r.d.memIssued && !slices.Contains(c.held, r):
			forwarded = true
		}
	}
	if forwarded {
		v.forward++
	}
	if squashed {
		v.squash++
	}
}

// heldMismatch compares everything a held load's retry can touch on two
// cores that share no state: the clock, the core statistics, the runahead
// interval counters, the runahead cache's, and every counter of the cores'
// hierarchies (compared whole when a cluster shares one).
func heldMismatch(c, ref *Core) string {
	switch {
	case c.Now() != ref.Now():
		return fmt.Sprintf("clock %d vs %d", c.Now(), ref.Now())
	case !reflect.DeepEqual(c.st, ref.st):
		return fmt.Sprintf("stats differ (load retries %d vs %d)", c.st.LoadRetries, ref.st.LoadRetries)
	case c.ra.bufferRealLoads != ref.ra.bufferRealLoads || c.ra.bufferForwards != ref.ra.bufferForwards || c.ra.bufferMemLoads != ref.ra.bufferMemLoads:
		return "runahead buffer load counts differ"
	case c.racache.Writes != ref.racache.Writes || c.racache.Hits != ref.racache.Hits || c.racache.Misses != ref.racache.Misses:
		return fmt.Sprintf("runahead-cache counts differ (misses %d vs %d)", c.racache.Misses, ref.racache.Misses)
	case len(c.held) != len(ref.held):
		return fmt.Sprintf("%d loads held vs %d", len(c.held), len(ref.held))
	}
	return hierMismatch(c.h, ref.h)
}

// hierMismatch compares two hierarchies' aggregate, per-requestor, cache and
// MSHR counters.
func hierMismatch(h, ref *memsys.Hierarchy) string {
	if h.Loads != ref.Loads || h.Stores != ref.Stores || h.Fetches != ref.Fetches ||
		h.LLCDemandAccesses != ref.LLCDemandAccesses || h.DRAMReadsDemand != ref.DRAMReadsDemand ||
		h.DRAMWrites != ref.DRAMWrites {
		return fmt.Sprintf("hierarchy counts differ (loads %d vs %d)", h.Loads, ref.Loads)
	}
	for r := 0; r < h.Requestors(); r++ {
		if *h.Req(r) != *ref.Req(r) {
			return fmt.Sprintf("requestor %d counts differ", r)
		}
		if cacheDiffers(h.L1DR(r), ref.L1DR(r)) || cacheDiffers(h.L1IR(r), ref.L1IR(r)) {
			return fmt.Sprintf("requestor %d L1 counts differ", r)
		}
		l1i, l1d := h.MSHRFilesR(r)
		ri, rd := ref.MSHRFilesR(r)
		if l1i.Allocs != ri.Allocs || l1i.Full != ri.Full || l1d.Allocs != rd.Allocs || l1d.Merges != rd.Merges ||
			l1d.Full != rd.Full || l1d.Peak != rd.Peak {
			return fmt.Sprintf("requestor %d MSHR counts differ", r)
		}
	}
	if cacheDiffers(h.LLC(), ref.LLC()) {
		return "LLC counts differ"
	}
	return ""
}

func cacheDiffers(a, b *cache.Cache) bool {
	return a.Hits != b.Hits || a.Misses != b.Misses || a.Evictions != b.Evictions
}

// TestHeldLoadsLockstep steps a core that counts unchanged refusals in bulk
// beside one that re-runs execLoad on every held load every cycle (the
// reference, perLoadRetry), cycle by cycle on stormKernel: the clocks, the
// statistics and every counter a retry touches must agree after every
// cycle, and the drained snapshots at the end. The rig must meet each wake
// source with loads held — an L1D fill, a store address that turns a held
// load into a forward, a mispredict squash, runahead entry and exit — or the
// test fails rather than pass vacuously. A 2-core buffer-mode cluster on
// one shared hierarchy runs the same comparison.
func TestHeldLoadsLockstep(t *testing.T) {
	if testing.Short() {
		t.Skip("differential simulation is slow")
	}
	p := stormKernel()
	const cycles = 20_000
	// A smaller L1D MSHR file keeps it full on the correct path too, so
	// runahead often enters over held loads.
	config := func(m Mode) Config {
		cfg := testConfig(m)
		cfg.Mem.L1DMSHRs = 12
		return cfg
	}
	systems := []struct {
		name string
		mode Mode
		enh  bool
	}{
		{"Base", ModeNone, false},
		{"RA", ModeTraditional, false},
		{"RB+CC", ModeBufferCC, false},
		{"Hybrid", ModeHybrid, true},
	}
	for _, sys := range systems {
		cfg := config(sys.mode)
		cfg.Enhancements = sys.enh
		c, ref := New(cfg, p), New(cfg, p)
		ref.perLoadRetry = true
		var cov heldCoverage
		for i := 0; i < cycles; i++ {
			cov.observe(c, c.Cycle)
			ref.Cycle()
			if m := heldMismatch(c, ref); m != "" {
				t.Fatalf("%s cycle %d: bulk and per-load retries diverge: %s", sys.name, c.Now(), m)
			}
		}
		t.Logf("%s: %v", sys.name, cov)
		if !cov.covered(sys.mode != ModeNone) {
			t.Fatalf("%s: wake sources not covered: %v", sys.name, cov)
		}
		a, b := drainedSnapshot(t, c), drainedSnapshot(t, ref)
		if !bytes.Equal(a, b) {
			t.Fatalf("%s: drained snapshots differ (%d vs %d bytes)", sys.name, len(a), len(b))
		}
	}

	// Two buffer-mode cores on one shared hierarchy, stepped the way the
	// cluster steps them.
	cfg := config(ModeBuffer)
	type rig struct {
		h     *memsys.Hierarchy
		cores []*Core
		now   int64
	}
	build := func(perLoad bool) *rig {
		r := &rig{h: memsys.NewShared(cfg.Mem, 2)}
		for i := 0; i < 2; i++ {
			c := NewShared(cfg, p, r.h, i)
			c.perLoadRetry = perLoad
			r.cores = append(r.cores, c)
		}
		return r
	}
	step := func(r *rig) {
		r.now++
		for _, c := range r.cores {
			c.SyncClock(r.now)
		}
		r.h.Tick(r.now)
		for _, c := range r.cores {
			c.StepExt(r.now)
		}
	}
	bulk, perLoad := build(false), build(true)
	var cov heldCoverage
	for i := 0; i < cycles; i++ {
		cov.observe(bulk.cores[1], func() { step(bulk) })
		step(perLoad)
		for k := range bulk.cores {
			if m := heldMismatch(bulk.cores[k], perLoad.cores[k]); m != "" {
				t.Fatalf("2-core RB core %d cycle %d: bulk and per-load retries diverge: %s", k, bulk.now, m)
			}
		}
	}
	t.Logf("2-core RB, core 1: %v", cov)
	if !cov.covered(true) {
		t.Fatalf("2-core RB: wake sources not covered: %v", cov)
	}
	a, b := drainedCluster(t, bulk.h, bulk.cores, &bulk.now), drainedCluster(t, perLoad.h, perLoad.cores, &perLoad.now)
	if !bytes.Equal(a, b) {
		t.Fatalf("2-core RB: drained snapshots differ (%d vs %d bytes)", len(a), len(b))
	}
}

// drainedCluster steps cores sharing h to quiescence the way the cluster
// drains, and returns every core's section followed by the hierarchy's.
func drainedCluster(t *testing.T, h *memsys.Hierarchy, cores []*Core, now *int64) []byte {
	t.Helper()
	for _, c := range cores {
		c.SetDraining(true)
	}
	quiesced := func() bool {
		for _, c := range cores {
			if !c.QuiescedCore() {
				return false
			}
		}
		return h.Drained()
	}
	for start := *now; !quiesced(); {
		if *now-start > drainBound {
			t.Fatal("cluster did not drain")
		}
		*now++
		for _, c := range cores {
			c.SyncClock(*now)
		}
		h.Tick(*now)
		for _, c := range cores {
			c.StepExt(*now)
		}
	}
	var w snapshot.Writer
	for _, c := range cores {
		c.SetDraining(false)
		if err := c.SnapshotCoreTo(&w); err != nil {
			t.Fatal(err)
		}
	}
	if err := h.SnapshotTo(&w); err != nil {
		t.Fatal(err)
	}
	return w.Bytes()
}

package core

import (
	"testing"

	"runaheadsim/internal/isa"
	"runaheadsim/internal/prog"
)

// testConfig shrinks nothing — the Table 1 machine — but disables the
// watchdog escape hatch being too lenient for unit tests.
func testConfig(mode Mode) Config {
	cfg := DefaultConfig()
	cfg.Mode = mode
	cfg.WatchdogCycles = 500_000
	return cfg
}

// --- Test programs -------------------------------------------------------

// simpleLoop: sum integers 1..n repeatedly; no memory traffic beyond I-fetch.
func simpleLoop() *prog.Program {
	b := prog.NewBuilder("simple-loop")
	const rI, rSum, rN = 1, 2, 3
	entry := b.Block("entry")
	loop := b.Block("loop")
	entry.Movi(rI, 0).Movi(rSum, 0).Movi(rN, 100).Jmp(loop)
	loop.Addi(rI, rI, 1).
		Add(rSum, rSum, rI).
		Blt(rI, rN, loop)
	reset := b.Block("reset")
	reset.Movi(rI, 0).Jmp(loop)
	return b.MustBuild()
}

// storeLoadLoop: writes then reads back memory with data-dependent control.
func storeLoadLoop() *prog.Program {
	b := prog.NewBuilder("store-load")
	const n = 512
	arr := b.Alloc(n*8, 64)
	for i := int64(0); i < n; i++ {
		b.Mem().Write64(arr+uint64(i)*8, i*3+1)
	}
	const rI, rBase, rV, rX, rT, rN = 1, 2, 3, 4, 5, 6
	entry := b.Block("entry")
	loop := b.Block("loop")
	odd := b.Block("odd")
	even := b.Block("even")
	tail := b.Block("tail")
	entry.Movi(rI, 0).Movi(rBase, int64(arr)).Movi(rX, 7).Movi(rN, n).Jmp(loop)
	loop.LdScaled(rV, rBase, rI, 8, 0).
		OpI(isa.ANDI, rT, rV, 1).
		Bnez(rT, odd)
	even.Op(isa.XOR, rX, rX, rV).Jmp(tail)
	odd.Add(rX, rX, rV)
	tail.Op(isa.MUL, rT, rI, rI). // keep the ALUs busy
					St(rBase, 0, rX). // store to a[0]: forwarding target
					Addi(rI, rI, 1).
					Blt(rI, rN, loop)
	reset := b.Block("reset")
	reset.Movi(rI, 0).Jmp(loop)
	return b.MustBuild()
}

// gatherLoop generates one independent DRAM miss per iteration with a short
// address chain — the mcf-like pattern the runahead buffer thrives on. The
// index array is sequential (cheap); the gathered array is huge and accessed
// with a large pseudo-random stride so nearly every access misses the LLC.
func gatherLoop(extraALU int) *prog.Program {
	b := prog.NewBuilder("gather")
	const slots = 1 << 15 // 32K slots x 2KB stride = 64MB footprint
	data := b.Alloc(slots*2048, 64)
	const rI, rIdx, rAddr, rV, rAcc, rMask, rBase, rT = 1, 2, 3, 4, 5, 6, 7, 8
	entry := b.Block("entry")
	loop := b.Block("loop")
	entry.Movi(rI, 0).
		Movi(rAcc, 0).
		Movi(rMask, slots-1).
		Movi(rBase, int64(data)).
		Jmp(loop)
	// idx = (i*40503) & mask; addr = base + idx*2048; v = *addr
	loop.OpI(isa.MULI, rIdx, rI, 40503).
		Op(isa.AND, rIdx, rIdx, rMask).
		OpI(isa.MULI, rAddr, rIdx, 2048).
		Add(rAddr, rAddr, rBase).
		Ld(rV, rAddr, 0).
		Add(rAcc, rAcc, rV)
	for j := 0; j < extraALU; j++ {
		loop.OpI(isa.ADDI, rT, rAcc, int64(j))
	}
	loop.Addi(rI, rI, 1).Jmp(loop)
	return b.MustBuild()
}

// pointerChase builds a single linked list walked serially — dependent
// misses runahead cannot parallelize.
func pointerChase() *prog.Program {
	b := prog.NewBuilder("chase")
	const nodes = 1 << 14
	base := b.Alloc(nodes*2048, 64)
	// next[i] = node (i*40503)&mask, a full-cycle permutation walk.
	for i := uint64(0); i < nodes; i++ {
		next := (i*40503 + 1) & (nodes - 1)
		b.Mem().Write64(base+i*2048, int64(base+next*2048))
	}
	const rP = 1
	entry := b.Block("entry")
	loop := b.Block("loop")
	entry.Movi(rP, int64(base)).Jmp(loop)
	loop.Ld(rP, rP, 0).Bnez(rP, loop)
	exit := b.Block("exit")
	exit.Jmp(loop)
	return b.MustBuild()
}

// --- Equivalence ----------------------------------------------------------

// checkEquivalence runs p for n committed uops under cfg and verifies the
// committed architectural state equals the reference interpreter's.
func checkEquivalence(t *testing.T, p *prog.Program, cfg Config, n uint64) *Stats {
	t.Helper()
	c := New(cfg, p)
	st := c.Run(n)
	in := prog.NewInterp(p)
	in.Run(st.Committed)
	regs := c.ArchRegs()
	for r := 0; r < isa.NumArchRegs; r++ {
		if regs[r] != in.Regs[r] {
			t.Fatalf("%s/%v: r%d = %d, interpreter has %d (after %d uops)\n%s",
				p.Name, cfg.Mode, r, regs[r], in.Regs[r], st.Committed, c.dump())
		}
	}
	if !c.Mem().Equal(in.Mem) {
		addr, _ := c.Mem().FirstDiff(in.Mem)
		t.Fatalf("%s/%v: memory differs at %#x: core=%d interp=%d (after %d uops)",
			p.Name, cfg.Mode, addr, c.Mem().Read64(addr), in.Mem.Read64(addr), st.Committed)
	}
	return st
}

func TestEquivalenceSimpleLoop(t *testing.T) {
	checkEquivalence(t, simpleLoop(), testConfig(ModeNone), 20_000)
}

func TestEquivalenceStoreLoad(t *testing.T) {
	checkEquivalence(t, storeLoadLoop(), testConfig(ModeNone), 20_000)
}

func TestEquivalenceAllModesAllPrograms(t *testing.T) {
	programs := []*prog.Program{simpleLoop(), storeLoadLoop(), gatherLoop(8), pointerChase()}
	modes := []Mode{ModeNone, ModeTraditional, ModeBuffer, ModeBufferCC, ModeHybrid, ModeAdaptive}
	for _, p := range programs {
		for _, m := range modes {
			p, m := p, m
			t.Run(p.Name+"/"+m.String(), func(t *testing.T) {
				cfg := testConfig(m)
				checkEquivalence(t, p, cfg, 30_000)
			})
		}
	}
}

func TestEquivalenceWithEnhancementsAndPrefetch(t *testing.T) {
	cfg := testConfig(ModeTraditional)
	cfg.Enhancements = true
	cfg.Mem.EnablePrefetch = true
	checkEquivalence(t, gatherLoop(8), cfg, 30_000)

	cfg2 := testConfig(ModeHybrid)
	cfg2.Enhancements = true
	cfg2.Mem.EnablePrefetch = true
	checkEquivalence(t, storeLoadLoop(), cfg2, 30_000)
}

// --- Pipeline behaviour ---------------------------------------------------

func TestIPCIsSane(t *testing.T) {
	c := New(testConfig(ModeNone), simpleLoop())
	st := c.Run(50_000)
	st.Cycles = c.Now()
	ipc := st.IPC()
	// A 3-uop fully-predictable loop on a 4-wide machine: near-ALU-bound.
	if ipc < 1.0 || ipc > 4.0 {
		t.Fatalf("simple loop IPC = %.2f, expected between 1 and 4", ipc)
	}
}

func TestBranchPredictionLearnsLoop(t *testing.T) {
	c := New(testConfig(ModeNone), simpleLoop())
	st := c.Run(50_000)
	rate := float64(st.Mispredicts) / float64(st.Branches)
	if rate > 0.05 {
		t.Fatalf("loop branch misprediction rate = %.3f, should be tiny", rate)
	}
}

func TestMemoryBoundWorkloadStalls(t *testing.T) {
	c := New(testConfig(ModeNone), gatherLoop(8))
	st := c.Run(20_000)
	st.Cycles = c.Now()
	if st.MemStallCycles == 0 {
		t.Fatal("gather workload produced no memory stalls")
	}
	frac := float64(st.MemStallCycles) / float64(st.Cycles)
	if frac < 0.3 {
		t.Fatalf("gather workload memory-stall fraction = %.2f, expected memory-bound", frac)
	}
	if st.IPC() > 1.0 {
		t.Fatalf("gather IPC = %.2f, expected well under 1", st.IPC())
	}
}

func TestRenamerInvariantHolds(t *testing.T) {
	c := New(testConfig(ModeHybrid), storeLoadLoop())
	for i := 0; i < 20_000; i++ {
		c.Cycle()
		if i%4096 == 0 {
			if err := c.ren.checkInvariant(c.rob, c.cfg.NumPhysRegs); err != nil {
				t.Fatalf("cycle %d: %v", i, err)
			}
		}
	}
}

func TestDeterminism(t *testing.T) {
	run := func() (uint64, int64, uint64) {
		c := New(testConfig(ModeHybrid), gatherLoop(8))
		st := c.Run(15_000)
		return st.Committed, c.Now(), c.h.DRAMReadsDemand
	}
	a1, b1, c1 := run()
	a2, b2, c2 := run()
	if a1 != a2 || b1 != b2 || c1 != c2 {
		t.Fatalf("nondeterministic run: (%d,%d,%d) vs (%d,%d,%d)", a1, b1, c1, a2, b2, c2)
	}
}

// --- Runahead behaviour ---------------------------------------------------

func TestTraditionalRunaheadEntersAndHelps(t *testing.T) {
	// A 46-uop loop body: only ~4 iterations fit in the ROB, so the baseline
	// window extracts little MLP and runahead has room to run ahead.
	base := New(testConfig(ModeNone), gatherLoop(40))
	bst := base.Run(20_000)
	bst.Cycles = base.Now()

	ra := New(testConfig(ModeTraditional), gatherLoop(40))
	rst := ra.Run(20_000)
	rst.Cycles = ra.Now()

	if rst.RunaheadIntervals == 0 {
		t.Fatal("runahead never entered on a memory-bound workload")
	}
	if rst.RunaheadCycles == 0 || rst.RunaheadUops == 0 {
		t.Fatal("runahead executed nothing")
	}
	if rst.IPC() <= bst.IPC()*1.02 {
		t.Fatalf("runahead IPC %.3f should beat baseline %.3f", rst.IPC(), bst.IPC())
	}
}

func TestRunaheadBufferGeneratesMoreMLP(t *testing.T) {
	// With a large loop body, traditional runahead spends fetch bandwidth on
	// filler ops; the runahead buffer loops only the 8-uop chain.
	mk := func(m Mode) *Stats {
		c := New(testConfig(m), gatherLoop(40))
		st := c.Run(20_000)
		st.Cycles = c.Now()
		return st
	}
	trad := mk(ModeTraditional)
	buf := mk(ModeBufferCC)
	if buf.RunaheadIntervals == 0 || buf.BufferUopsIssued == 0 {
		t.Fatal("runahead buffer never used")
	}
	tradMLP := float64(trad.RunaheadMissesLLC) / float64(trad.RunaheadIntervals)
	bufMLP := float64(buf.RunaheadMissesLLC) / float64(buf.RunaheadIntervals)
	if bufMLP <= tradMLP {
		t.Fatalf("buffer MLP %.2f should exceed traditional %.2f", bufMLP, tradMLP)
	}
	if buf.IPC() <= trad.IPC() {
		t.Fatalf("buffer IPC %.3f should beat traditional %.3f on filler-heavy gather", buf.IPC(), trad.IPC())
	}
}

func TestRunaheadPointerChaseGivesLittle(t *testing.T) {
	// A serial pointer chase poisons each next-pointer: runahead generates no
	// extra MLP (every chase load depends on the blocked one).
	c := New(testConfig(ModeTraditional), pointerChase())
	st := c.Run(3_000)
	if st.RunaheadIntervals == 0 {
		t.Fatal("chase should trigger runahead")
	}
	mlp := float64(st.RunaheadMissesLLC) / float64(st.RunaheadIntervals)
	if mlp > 2.0 {
		t.Fatalf("serial chase generated %.2f misses/interval; dependent misses should be poisoned", mlp)
	}
}

func TestChainCacheHitsOnRepetitiveWorkload(t *testing.T) {
	c := New(testConfig(ModeBufferCC), gatherLoop(8))
	c.Run(20_000)
	hits, misses := c.ccache.HitCount, c.ccache.MissCount
	if hits == 0 {
		t.Fatal("chain cache never hit on a single-PC miss workload")
	}
	if hits < misses {
		t.Fatalf("chain cache hits %d < misses %d on repetitive workload", hits, misses)
	}
}

func TestHybridPrefersBufferOnShortChains(t *testing.T) {
	c := New(testConfig(ModeHybrid), gatherLoop(8))
	st := c.Run(20_000)
	if st.HybridChoseBuffer == 0 {
		t.Fatal("hybrid never chose the buffer on a short-chain workload")
	}
	if st.HybridChoseBuffer < st.HybridChoseTrad {
		t.Fatalf("hybrid chose buffer %d vs traditional %d; short chains should prefer the buffer",
			st.HybridChoseBuffer, st.HybridChoseTrad)
	}
}

func TestEnhancementsReduceRunaheadWork(t *testing.T) {
	plain := New(testConfig(ModeTraditional), gatherLoop(8))
	pst := plain.Run(20_000)
	enh := New(func() Config { c := testConfig(ModeTraditional); c.Enhancements = true; return c }(), gatherLoop(8))
	est := enh.Run(20_000)
	if est.RunaheadEntrySkipped == 0 {
		t.Fatal("enhancements never suppressed an interval")
	}
	if est.RunaheadUops >= pst.RunaheadUops {
		t.Fatalf("enhanced runahead executed %d uops, plain %d — should be fewer",
			est.RunaheadUops, pst.RunaheadUops)
	}
}

func TestFrontEndGatedDuringBufferMode(t *testing.T) {
	c := New(testConfig(ModeBufferCC), gatherLoop(8))
	st := c.Run(20_000)
	st.Cycles = c.Now()
	if st.FEGatedCycles == 0 {
		t.Fatal("front end never gated in buffer mode")
	}
	if st.FEGatedCycles != st.RunaheadBufferCycles {
		t.Fatalf("gated cycles %d != buffer cycles %d", st.FEGatedCycles, st.RunaheadBufferCycles)
	}
}

func TestRunaheadExitRestoresState(t *testing.T) {
	// Equivalence (tested above) already proves restoration; here, check the
	// machinery: after a full run the core is never left in runahead with an
	// empty ROB.
	c := New(testConfig(ModeBufferCC), gatherLoop(8))
	c.Run(10_000)
	for i := 0; i < 3; i++ {
		if c.ra.active && c.rob.empty() && !c.ra.usingBuffer {
			t.Fatal("stuck in runahead with an empty window")
		}
		c.Cycle()
	}
}

// --- Chain generation (Algorithm 1 / Figure 7) ----------------------------

// TestChainGenerationMCFExample reconstructs the spirit of Figure 7: a
// blocking load whose chain is load <- mov <- add <- add <- load, with
// unrelated filler between the links.
func TestChainGenerationMCFExample(t *testing.T) {
	b := prog.NewBuilder("fig7")
	const slots = 1 << 14
	arr := b.Alloc(slots*2048, 64)
	const rI, rB, r3, r5, r9, r6, r7, r8, rF = 1, 2, 3, 4, 5, 6, 7, 8, 9
	entry := b.Block("entry")
	loop := b.Block("loop")
	entry.Movi(rI, 0).Movi(rB, int64(arr)).Movi(r3, int64(arr)).Jmp(loop)
	// The Figure 7 chain, with filler ops interleaved.
	loop.OpI(isa.MULI, r5, rI, 2048). // "LD [R3] -> R5" stand-in: index math
						Emit(isa.Uop{Op: isa.ADD, Dst: r9, Src1: r5, Src2: isa.RegNone}). // ADD R4,R5 -> R9
						OpI(isa.ADDI, rF, rI, 3).                                         // filler
						OpI(isa.ANDI, r9, r9, slots*2048-2048).                           // keep address in range
						Add(r6, r9, rB).                                                  // ADD R9,R1 -> R6
						OpI(isa.ADDI, rF, rF, 1).                                         // filler
						Mov(r7, r6).                                                      // MOV R6 -> R7
						Ld(r8, r7, 0).                                                    // LD [R7] -> R8 (the miss)
						Addi(rI, rI, 1).
						Jmp(loop)
	p := b.MustBuild()

	cfg := testConfig(ModeBuffer)
	c := New(cfg, p)
	st := c.Run(20_000)
	if st.ChainsGenerated == 0 {
		t.Fatal("no chains generated")
	}
	if st.RunaheadIntervals == 0 || st.BufferUopsIssued == 0 {
		t.Fatal("buffer never ran")
	}
	// The generated chain must include the address-generation ops but not
	// the filler: chain length well under the loop body.
	avgLen := float64(st.ROBChainReads) / float64(st.ChainsGenerated)
	if avgLen > 9 {
		t.Fatalf("average chain length %.1f — filtering failed (body is 10 uops)", avgLen)
	}
	if avgLen < 4 {
		t.Fatalf("average chain length %.1f — chain lost its links", avgLen)
	}
}

func TestChainGenerationUnitWalk(t *testing.T) {
	// Drive the machine until a recognizable state, then call generateChain
	// directly on a ROB snapshot.
	c := New(testConfig(ModeNone), gatherLoop(8))
	var blocked *DynInst
	for i := 0; i < 200_000 && blocked == nil; i++ {
		c.Cycle()
		if !c.rob.empty() {
			h := c.rob.at(0)
			if h.U.Op.IsLoad() && !h.Executed && h.DRAMBound && c.rob.size() > 50 {
				blocked = h
			}
		}
	}
	if blocked == nil {
		t.Fatal("never observed a blocking load")
	}
	match := c.findOtherInstance(blocked)
	if match == nil {
		t.Fatal("no other dynamic instance of the blocking PC in a tight loop")
	}
	ch := &Chain{}
	searches, truncated := c.generateChain(match, ch)
	if ch.Len() == 0 {
		t.Fatal("chain generation failed")
	}
	if truncated {
		t.Fatal("8-uop loop chain should not be truncated")
	}
	if searches == 0 {
		t.Fatal("no destination-CAM searches counted")
	}
	if ch.Len() > c.cfg.MaxChainLength {
		t.Fatalf("chain length %d exceeds the cap", ch.Len())
	}
	// The chain must contain the gather load and be in program order.
	hasLoad := false
	for i := 1; i < len(ch.Uops); i++ {
		if ch.Uops[i-1].Index > ch.Uops[i].Index &&
			!(ch.Uops[i-1].Index > ch.Uops[i].Index && ch.Uops[i].Index >= 0) {
			t.Fatal("chain not in a consistent order")
		}
	}
	for _, cu := range ch.Uops {
		if cu.U.Op.IsLoad() {
			hasLoad = true
		}
		if cu.U.Op.IsBranch() {
			t.Fatal("control ops must be excluded from chains")
		}
	}
	if !hasLoad {
		t.Fatal("chain lost the miss-generating load")
	}
	if ch.Signature == 0 {
		t.Fatal("empty signature")
	}
}

func TestChainIncludesStoreForwarding(t *testing.T) {
	// Spill/fill: the chain of a miss whose address is reloaded from a spill
	// slot must include the spilling store.
	b := prog.NewBuilder("spill")
	const slots = 1 << 14
	arr := b.Alloc(slots*2048, 64)
	slot := b.Alloc(8, 8)
	const rI, rB, rA, rV, rS = 1, 2, 3, 4, 5
	entry := b.Block("entry")
	loop := b.Block("loop")
	entry.Movi(rI, 0).Movi(rB, int64(arr)).Movi(rS, int64(slot)).Jmp(loop)
	loop.OpI(isa.MULI, rA, rI, 40503).
		OpI(isa.ANDI, rA, rA, slots-1).
		OpI(isa.MULI, rA, rA, 2048).
		Add(rA, rA, rB).
		St(rS, 0, rA). // spill the address
		Ld(rA, rS, 0). // fill it back
		Ld(rV, rA, 0). // the miss
		Addi(rI, rI, 1).
		Jmp(loop)
	p := b.MustBuild()
	c := New(testConfig(ModeBuffer), p)
	st := c.Run(20_000)
	if st.SQCAMSearches == 0 {
		t.Fatal("store-queue CAM was never searched during chain generation")
	}
	if st.RunaheadIntervals == 0 {
		t.Fatal("no runahead on the spill workload")
	}
}

// --- Instrumentation ------------------------------------------------------

func TestDepTrackFig2SourcesOnChip(t *testing.T) {
	cfg := testConfig(ModeNone)
	cfg.DepTrack = true
	c := New(cfg, gatherLoop(8))
	st := c.Run(20_000)
	if st.DemandDRAMMisses == 0 {
		t.Fatal("no demand misses recorded")
	}
	frac := float64(st.MissSourcesOnChip) / float64(st.DemandDRAMMisses)
	if frac < 0.9 {
		t.Fatalf("gather misses should be ~100%% on-chip-sourced, got %.2f", frac)
	}

	c2 := New(cfg, pointerChase())
	st2 := c2.Run(3_000)
	if st2.DemandDRAMMisses == 0 {
		t.Fatal("no chase misses recorded")
	}
	frac2 := float64(st2.MissSourcesOnChip) / float64(st2.DemandDRAMMisses)
	if frac2 > 0.5 {
		t.Fatalf("chase misses depend on prior misses; on-chip fraction %.2f too high", frac2)
	}
}

func TestDepTrackFig345ChainStats(t *testing.T) {
	cfg := testConfig(ModeTraditional)
	cfg.DepTrack = true
	c := New(cfg, gatherLoop(20))
	st := c.Run(30_000)
	if st.RAChainsUnique+st.RAChainsRepeated == 0 {
		t.Fatal("no runahead miss chains recorded")
	}
	if st.RAChainsRepeated <= st.RAChainsUnique {
		t.Fatalf("single-PC gather chains should repeat: unique=%d repeated=%d",
			st.RAChainsUnique, st.RAChainsRepeated)
	}
	if st.ChainLengths.Count == 0 || st.ChainLengths.Mean() < 2 {
		t.Fatalf("chain length histogram empty or degenerate (mean %.1f)", st.ChainLengths.Mean())
	}
	if st.RATotalUops == 0 || st.RAChainUops == 0 {
		t.Fatal("figure 3 counters empty")
	}
	frac := float64(st.RAChainUops) / float64(st.RATotalUops)
	if frac <= 0.05 || frac >= 1.0 {
		t.Fatalf("chain-op fraction %.2f out of plausible range", frac)
	}
}

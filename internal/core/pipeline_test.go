package core

import (
	"strings"
	"testing"

	"runaheadsim/internal/isa"
	"runaheadsim/internal/prog"
)

// --- Front end ---------------------------------------------------------------

func TestFetchStopsAtTakenBranch(t *testing.T) {
	// A tight 2-uop loop: fetch can deliver at most one iteration per cycle
	// (one taken branch per fetch cycle), so IPC caps at 2 even on a 4-wide
	// machine.
	b := prog.NewBuilder("tiny")
	loop := b.Block("loop")
	loop.Addi(1, 1, 1).Jmp(loop)
	c := New(testConfig(ModeNone), b.MustBuild())
	st := c.Run(20_000)
	st.Cycles = c.Now()
	if ipc := st.IPC(); ipc > 2.05 {
		t.Fatalf("2-uop loop IPC = %.2f; the taken-branch limit should cap it at 2", ipc)
	}
}

func TestBTBColdStartMispredicts(t *testing.T) {
	// First encounter of a taken branch has no BTB entry: the core must
	// fall through and recover at execute; afterwards the BTB supplies the
	// target.
	b := prog.NewBuilder("btb")
	entry := b.Block("entry")
	far := b.Block("far")
	pad := b.Block("pad")
	entry.Movi(1, 0).Jmp(far)
	pad.Nop(1).Jmp(pad) // wrong-path landing zone
	far.Addi(1, 1, 1).Jmp(far)
	p := b.MustBuild()
	c := New(testConfig(ModeNone), p)
	st := c.Run(1_000)
	if st.Mispredicts == 0 {
		t.Fatal("cold BTB should cause at least one misprediction")
	}
	// Steady state: the loop branch hits in the BTB, mispredicts stay rare.
	if st.Mispredicts > 10 {
		t.Fatalf("%d mispredicts in a trivially predictable program", st.Mispredicts)
	}
}

func TestRedirectFetchClearsFrontQueue(t *testing.T) {
	c := New(testConfig(ModeNone), simpleLoop())
	// Block rename so fetched uops accumulate in the front queue.
	saved := c.rsCount
	c.rsCount = c.cfg.RSSize
	for i := 0; i < 500; i++ { // enough for the cold I-fetch to fill
		c.Cycle()
	}
	c.rsCount = saved
	if len(c.frontQ) == 0 {
		t.Fatal("front queue should have filled")
	}
	gen := c.fetchGen
	c.redirectFetch(c.p.AddrOf(0), 3)
	if len(c.frontQ) != 0 {
		t.Fatal("redirect must discard fetched uops")
	}
	if c.fetchGen != gen+1 {
		t.Fatal("redirect must bump the fetch generation")
	}
	if c.fetchStallUntil != c.now+3 {
		t.Fatal("redirect penalty not applied")
	}
}

// --- Store buffer -------------------------------------------------------------

func TestStoreBufferDrains(t *testing.T) {
	c := New(testConfig(ModeNone), storeLoadLoop())
	c.Run(20_000)
	// After a run with stores, the buffer must not be wedged.
	for i := 0; i < 5_000 && len(c.storeBuf) > 0; i++ {
		c.Cycle()
	}
	if len(c.storeBuf) > c.cfg.StoreBufSize {
		t.Fatalf("store buffer overgrew: %d entries", len(c.storeBuf))
	}
}

func TestStoreBufferBackpressureStallsCommit(t *testing.T) {
	// With a 1-entry store buffer, a burst of stores to distinct lines must
	// stall commit (StoreBufFullStall) rather than lose stores.
	b := prog.NewBuilder("storeburst")
	base := b.Alloc(1<<20, 64)
	entry := b.Block("entry")
	loop := b.Block("loop")
	entry.Movi(1, int64(base)).Movi(2, 7).Jmp(loop)
	for i := int64(0); i < 8; i++ {
		loop.St(1, i*4096, 2)
	}
	loop.Addi(1, 1, 8).Jmp(loop)
	cfg := testConfig(ModeNone)
	cfg.StoreBufSize = 1
	c := New(cfg, b.MustBuild())
	st := c.Run(5_000)
	if st.StoreBufFullStall == 0 {
		t.Fatal("1-entry store buffer should stall commit")
	}
	// Architectural equivalence is preserved regardless.
	in := prog.NewInterp(c.p)
	in.Run(st.Committed)
	if !c.Mem().Equal(in.Mem) {
		t.Fatal("store backpressure corrupted memory state")
	}
}

// --- Watchdog & dump ------------------------------------------------------------

func TestWatchdogFiresOnDeadlock(t *testing.T) {
	c := New(testConfig(ModeNone), simpleLoop())
	c.cfg.WatchdogCycles = 100
	// Simulate a wedge: empty the ROB and stall fetch forever.
	c.fetchStallUntil = 1 << 60
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("watchdog must panic on no progress")
		}
		if !strings.Contains(r.(string), "watchdog") {
			t.Fatalf("unexpected panic: %v", r)
		}
	}()
	c.Run(1)
}

func TestDumpRendersState(t *testing.T) {
	c := New(testConfig(ModeNone), simpleLoop())
	for i := 0; i < 30; i++ {
		c.Cycle()
	}
	d := c.dump()
	for _, want := range []string{"cycle=", "rob=", "fetchPC="} {
		if !strings.Contains(d, want) {
			t.Fatalf("dump missing %q:\n%s", want, d)
		}
	}
}

// --- ResetStats -----------------------------------------------------------------

func TestResetStatsZerosCountersKeepsState(t *testing.T) {
	c := New(testConfig(ModeHybrid), gatherLoop(8))
	c.Run(10_000)
	priorMisses := c.h.LLCDemandMisses
	if priorMisses == 0 {
		t.Fatal("warmup generated no misses")
	}
	c.ResetStats()
	if c.st.Committed != 0 || c.st.Cycles != 0 || c.h.LLCDemandMisses != 0 {
		t.Fatal("counters not zeroed")
	}
	if c.h.DRAM().Reads != 0 || c.bp.Lookups != 0 {
		t.Fatal("component counters not zeroed")
	}
	// Microarchitectural state survives: the next run must be warmer (fewer
	// misses per uop) than a cold machine.
	st := c.Run(10_000)
	cold := New(testConfig(ModeHybrid), gatherLoop(8))
	cst := cold.Run(10_000)
	cst.Cycles = cold.Now()
	if st.IPC() < cst.IPC() {
		t.Fatalf("post-reset IPC %.3f below cold-start %.3f; state was lost", st.IPC(), cst.IPC())
	}
}

func TestRunCyclesRelativeToReset(t *testing.T) {
	c := New(testConfig(ModeNone), simpleLoop())
	c.Run(10_000)
	c.ResetStats()
	st := c.Run(10_000)
	if st.Cycles <= 0 || st.Cycles >= c.Now() {
		t.Fatalf("post-reset Cycles = %d (absolute now = %d); must be the delta", st.Cycles, c.Now())
	}
}

// --- Poison semantics -------------------------------------------------------------

func TestPoisonNeverEscapesRunahead(t *testing.T) {
	// After any run in any mode, no architectural register may be poisoned
	// (in normal mode the identity registers must always be clean).
	for _, m := range []Mode{ModeTraditional, ModeBufferCC, ModeHybrid} {
		c := New(testConfig(m), gatherLoop(8))
		c.Run(20_000)
		if c.ra.active {
			// Finish the interval so the reset runs.
			for i := 0; i < 500_000 && c.ra.active; i++ {
				c.Cycle()
			}
		}
		for i := 0; i < isa.NumArchRegs; i++ {
			if c.prf.poison[i] && c.ren.rat[i] == PhysReg(i) {
				t.Fatalf("%v: architectural register r%d left poisoned", m, i)
			}
		}
	}
}

func TestRunaheadCountersConsistent(t *testing.T) {
	c := New(testConfig(ModeHybrid), gatherLoop(8))
	st := c.Run(30_000)
	if st.RunaheadBufferCycles+st.RunaheadTradCycles != st.RunaheadCycles {
		t.Fatalf("mode cycles %d+%d != total runahead cycles %d",
			st.RunaheadBufferCycles, st.RunaheadTradCycles, st.RunaheadCycles)
	}
	if st.RunaheadCycles > c.Now() {
		t.Fatal("runahead cycles exceed total cycles")
	}
	if st.HybridChoseBuffer+st.HybridChoseTrad != st.RunaheadIntervals {
		t.Fatalf("hybrid decisions %d+%d != intervals %d",
			st.HybridChoseBuffer, st.HybridChoseTrad, st.RunaheadIntervals)
	}
}

// --- Config -----------------------------------------------------------------------

func TestDefaultConfigMatchesTable1(t *testing.T) {
	cfg := DefaultConfig()
	checks := map[string]bool{
		"4-wide":            cfg.IssueWidth == 4 && cfg.FetchWidth == 4 && cfg.CommitWidth == 4,
		"192-entry ROB":     cfg.ROBSize == 192,
		"92-entry RS":       cfg.RSSize == 92,
		"32-uop buffer":     cfg.RunaheadBufferSize == 32 && cfg.MaxChainLength == 32,
		"2-entry CC":        cfg.ChainCacheEntries == 2,
		"512B RA cache":     cfg.RACacheBytes == 512 && cfg.RACacheWays == 4 && cfg.RACacheLineBytes == 8,
		"16-entry SRSL":     cfg.SRSLSize == 16,
		"2 reg searches":    cfg.RegSearchesPerCycle == 2,
		"2 mem ports":       cfg.MemPorts == 2,
		"32KB L1":           cfg.Mem.L1D.SizeBytes == 32<<10 && cfg.Mem.L1I.SizeBytes == 32<<10,
		"1MB LLC":           cfg.Mem.LLC.SizeBytes == 1<<20,
		"64-entry memqueue": cfg.Mem.DRAM.QueueCap == 64,
		"2 channels":        cfg.Mem.DRAM.Channels == 2,
		"8 banks":           cfg.Mem.DRAM.BanksPerChannel == 8,
		"8KB rows":          cfg.Mem.DRAM.RowBytes == 8192,
	}
	for name, ok := range checks {
		if !ok {
			t.Errorf("Table 1 mismatch: %s", name)
		}
	}
}

// --- Wrong-path execution -----------------------------------------------------

// TestWrongPathLoadsCounted: a data-dependent branch steering between two
// gather streams mispredicts often; the loads fetched down the wrong path
// must be counted (and their memory requests persist — the wrong-path
// prefetching effect of the paper's reference [23]).
func TestWrongPathLoadsCounted(t *testing.T) {
	b := prog.NewBuilder("wrongpath")
	const slots = 1 << 14
	data := b.Alloc(slots*2112, 64)
	const rI, rIdx, rAddr, rV, rB = 1, 2, 3, 4, 5
	entry := b.Block("entry")
	loop := b.Block("loop")
	alt := b.Block("alt")
	tail := b.Block("tail")
	entry.Movi(rI, 0).Movi(rV, 0).Jmp(loop)
	// The branch depends on the previous iteration's gather load (a DRAM
	// miss), so it resolves hundreds of cycles after the wrong path was
	// fetched — plenty of time for wrong-path loads to issue.
	loop.Op(isa.ADD, rB, rV, rI).
		OpI(isa.ANDI, rB, rB, 1<<4).
		Bnez(rB, alt).
		OpI(isa.MULI, rIdx, rI, 40503).
		Jmp(tail)
	alt.OpI(isa.MULI, rIdx, rI, 48271)
	tail.OpI(isa.ANDI, rIdx, rIdx, slots-1).
		OpI(isa.MULI, rAddr, rIdx, 2112).
		Addi(rAddr, rAddr, int64(data)).
		Ld(rV, rAddr, 0).
		Addi(rI, rI, 1).
		Jmp(loop)
	c := New(testConfig(ModeNone), b.MustBuild())
	st := c.Run(30_000)
	if st.Mispredicts == 0 {
		t.Fatal("hash-directed branch should mispredict")
	}
	if st.SquashedUops == 0 {
		t.Fatal("mispredicts must squash uops")
	}
	if st.WrongPathLoads == 0 {
		t.Fatal("wrong-path loads never counted")
	}
	if st.WrongPathLoads > st.SquashedUops {
		t.Fatal("wrong-path loads cannot exceed squashed uops")
	}
}

// --- Store forwarding ---------------------------------------------------------

func TestStoreForwardingCounted(t *testing.T) {
	// A store immediately followed by a load of the same address must
	// forward from the store queue, not the cache.
	b := prog.NewBuilder("fwd")
	slot := b.Alloc(64, 64)
	e := b.Block("e")
	loop := b.Block("loop")
	e.Movi(1, int64(slot)).Movi(2, 0).Jmp(loop)
	loop.Addi(2, 2, 1).
		St(1, 0, 2).
		Ld(3, 1, 0).
		Add(4, 4, 3).
		Jmp(loop)
	c := New(testConfig(ModeNone), b.MustBuild())
	st := c.Run(10_000)
	if st.StoreForward == 0 {
		t.Fatal("store-to-load forwarding never happened")
	}
	// Architectural correctness of the forwarded values.
	in := prog.NewInterp(c.p)
	in.Run(st.Committed)
	if c.ArchRegs()[4] != in.Regs[4] {
		t.Fatalf("forwarded accumulation wrong: %d vs %d", c.ArchRegs()[4], in.Regs[4])
	}
}

func TestLoadWaitsForStoreData(t *testing.T) {
	// Conservative disambiguation: a load behind a store whose data comes
	// off a slow MUL chain must hold at issue until the store executes, and
	// must still forward the right value (checked against the interpreter).
	b := prog.NewBuilder("fwdwait")
	slot := b.Alloc(64, 64)
	e := b.Block("e")
	loop := b.Block("loop")
	e.Movi(1, int64(slot)).Movi(2, 3).Jmp(loop)
	loop.OpI(isa.MULI, 2, 2, 3). // slow producer of the store data
					OpI(isa.MULI, 2, 2, 5).
					OpI(isa.ANDI, 2, 2, 0xffff).
					St(1, 0, 2).
					Ld(3, 1, 0).
					Add(4, 4, 3).
					Jmp(loop)
	c := New(testConfig(ModeNone), b.MustBuild())
	st := c.Run(10_000)
	if st.StoreForward == 0 {
		t.Fatal("load never forwarded from the slow store")
	}
	in := prog.NewInterp(c.p)
	in.Run(st.Committed)
	if c.ArchRegs()[4] != in.Regs[4] {
		t.Fatalf("forwarded values wrong under slow store data: %d vs %d",
			c.ArchRegs()[4], in.Regs[4])
	}
}

func TestICacheStallsOnHugeFootprint(t *testing.T) {
	// A program whose text exceeds the 32KB L1I must show I-cache stalls:
	// build ~6000 uops of straight-line code in a loop (48KB of text).
	b := prog.NewBuilder("bigtext")
	loop := b.Block("loop")
	for i := 0; i < 6000; i++ {
		loop.OpI(isa.ADDI, isa.Reg(1+i%8), isa.Reg(1+i%8), 1)
	}
	loop.Jmp(loop)
	c := New(testConfig(ModeNone), b.MustBuild())
	st := c.Run(30_000)
	if st.ICacheStallCycles == 0 {
		t.Fatal("48KB of text never stalled the 32KB I-cache")
	}
}

func TestConfigValidation(t *testing.T) {
	good := DefaultConfig()
	if err := good.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	mutations := []func(*Config){
		func(c *Config) { c.IssueWidth = 0 },
		func(c *Config) { c.ROBSize = 2 },
		func(c *Config) { c.RSSize = c.ROBSize + 1 },
		func(c *Config) { c.NumPhysRegs = 64 },
		func(c *Config) { c.MaxChainLength = c.RunaheadBufferSize + 1 },
		func(c *Config) { c.ChainCacheEntries = 0 },
		func(c *Config) { c.MemPorts = 0 },
		func(c *Config) { c.SQSize = 0 },
		// An L1 hit fired in the event phase would complete one cycle out,
		// beside the held loads' retries (cycleBody).
		func(c *Config) { c.Mem.L1Latency = 1 },
	}
	for i, mut := range mutations {
		cfg := DefaultConfig()
		mut(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
	minL1 := DefaultConfig()
	minL1.Mem.L1Latency = 2
	if err := minL1.Validate(); err != nil {
		t.Errorf("a 2-cycle L1 rejected: %v", err)
	}
	// New panics on invalid configs.
	func() {
		defer func() {
			if recover() == nil {
				t.Error("New must panic on an invalid config")
			}
		}()
		bad := DefaultConfig()
		bad.IssueWidth = 0
		New(bad, simpleLoop())
	}()
}

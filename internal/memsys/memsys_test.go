package memsys

import (
	"testing"
)

// drive ticks the hierarchy from *now until pred() or the cycle budget runs
// out, returning the final cycle.
func drive(t *testing.T, h *Hierarchy, now *int64, budget int64, pred func() bool) {
	t.Helper()
	for lim := *now + budget; *now < lim; *now++ {
		h.Tick(*now)
		if pred() {
			return
		}
	}
	t.Fatalf("condition not reached within %d cycles", budget)
}

func TestLoadL1Hit(t *testing.T) {
	h := New(DefaultConfig())
	var now int64
	var first, second *Outcome
	load(h, now, 0x1000, false, nil, func(o Outcome) { first = &o })
	drive(t, h, &now, 10000, func() bool { return first != nil })
	if first.Level != LevelMem {
		t.Fatalf("cold load level = %v, want Mem", first.Level)
	}
	start := now
	load(h, now, 0x1000, false, nil, func(o Outcome) { second = &o })
	drive(t, h, &now, 100, func() bool { return second != nil })
	if second.Level != LevelL1 {
		t.Fatalf("warm load level = %v, want L1", second.Level)
	}
	if d := second.When - start; d != int64(h.cfg.L1Latency) {
		t.Fatalf("L1 hit latency = %d, want %d", d, h.cfg.L1Latency)
	}
}

func TestLoadLLCHit(t *testing.T) {
	h := New(DefaultConfig())
	var now int64
	var warm *Outcome
	done := false
	load(h, now, 0x2000, false, nil, func(Outcome) { done = true })
	drive(t, h, &now, 10000, func() bool { return done })
	// Evict from L1 by filling its set: L1D is 32KB/8-way/64B = 64 sets, so
	// lines 8KB apart collide. 8 more fills push 0x2000 out.
	for i := 1; i <= 8; i++ {
		fillDone := false
		load(h, now, 0x2000+uint64(i*8192), false, nil, func(Outcome) { fillDone = true })
		drive(t, h, &now, 10000, func() bool { return fillDone })
	}
	start := now
	load(h, now, 0x2000, false, nil, func(o Outcome) { warm = &o })
	drive(t, h, &now, 1000, func() bool { return warm != nil })
	if warm.Level != LevelLLC {
		t.Fatalf("level = %v, want LLC", warm.Level)
	}
	lat := warm.When - start
	want := int64(h.cfg.L1Latency + h.cfg.LLCLatency)
	if lat < want || lat > want+4 {
		t.Fatalf("LLC hit latency = %d, want about %d", lat, want)
	}
}

func TestColdMissLatencyIsDRAMBound(t *testing.T) {
	h := New(DefaultConfig())
	var now int64
	var o *Outcome
	start := now
	load(h, now, 0x3000, false, nil, func(x Outcome) { o = &x })
	drive(t, h, &now, 10000, func() bool { return o != nil })
	lat := o.When - start
	// L1 + LLC tag checks plus a cold DRAM access (~104) and change.
	if lat < 100 {
		t.Fatalf("cold miss latency %d implausibly low", lat)
	}
	if h.DRAMReadsDemand != 1 {
		t.Fatalf("demand DRAM reads = %d, want 1", h.DRAMReadsDemand)
	}
}

func TestMSHRMergeNoDuplicateDRAM(t *testing.T) {
	h := New(DefaultConfig())
	var now int64
	count := 0
	load(h, now, 0x4000, false, nil, func(Outcome) { count++ })
	load(h, now, 0x4008, false, nil, func(Outcome) { count++ }) // same line
	drive(t, h, &now, 10000, func() bool { return count == 2 })
	if h.DRAMReadsDemand != 1 {
		t.Fatalf("merged accesses issued %d DRAM reads, want 1", h.DRAMReadsDemand)
	}
}

func TestNoWaitLoadNotifiesEarlyAndStillFills(t *testing.T) {
	h := New(DefaultConfig())
	var now int64
	var o *Outcome
	start := now
	dones, misses := 0, 0
	load(h, now, 0x5000, true, func(int64) { misses++ }, func(x Outcome) { o = &x; dones++ })
	drive(t, h, &now, 10000, func() bool { return o != nil })
	if o.Level != LevelMem {
		t.Fatalf("level = %v, want Mem", o.Level)
	}
	early := o.When - start
	if early > int64(h.cfg.L1Latency+h.cfg.LLCLatency+4) {
		t.Fatalf("no-wait notification at +%d, should be at tag-check time", early)
	}
	// The background fill must complete: wait, then the line hits in L1.
	drive(t, h, &now, 10000, func() bool { return h.Drained() })
	if dones != 1 || misses != 1 {
		t.Fatalf("completions/miss notices = %d/%d, want exactly one each (the fill must not complete the load again)", dones, misses)
	}
	var warm *Outcome
	load(h, now, 0x5000, false, nil, func(x Outcome) { warm = &x })
	drive(t, h, &now, 100, func() bool { return warm != nil })
	if warm.Level != LevelL1 {
		t.Fatalf("after background fill, level = %v, want L1", warm.Level)
	}
}

func TestNoWaitLoadLLCHitDeliversData(t *testing.T) {
	h := New(DefaultConfig())
	var now int64
	done := false
	load(h, now, 0x6000, false, nil, func(Outcome) { done = true })
	drive(t, h, &now, 10000, func() bool { return done })
	for i := 1; i <= 8; i++ { // push out of L1 as above
		fd := false
		load(h, now, 0x6000+uint64(i*8192), false, nil, func(Outcome) { fd = true })
		drive(t, h, &now, 10000, func() bool { return fd })
	}
	var o *Outcome
	load(h, now, 0x6000, true, nil, func(x Outcome) { o = &x })
	drive(t, h, &now, 1000, func() bool { return o != nil })
	if o.Level != LevelLLC {
		t.Fatalf("no-wait LLC hit level = %v, want LLC", o.Level)
	}
}

func TestStoreWriteAllocateAndWriteback(t *testing.T) {
	h := New(DefaultConfig())
	var now int64
	done := false
	store(h, now, 0x7000, func(Outcome) { done = true })
	drive(t, h, &now, 10000, func() bool { return done })
	// Evict the dirty line from L1: conflicting fills force a writeback to
	// the LLC (MarkDirty there, no DRAM write yet).
	for i := 1; i <= 8; i++ {
		fd := false
		load(h, now, 0x7000+uint64(i*8192), false, nil, func(Outcome) { fd = true })
		drive(t, h, &now, 10000, func() bool { return fd })
	}
	if h.DRAMWrites != 0 {
		t.Fatalf("dirty L1 eviction should write back to LLC, not DRAM (writes=%d)", h.DRAMWrites)
	}
	if h.Stores != 1 {
		t.Fatalf("stores = %d", h.Stores)
	}
}

func TestFetchPath(t *testing.T) {
	h := New(DefaultConfig())
	var now int64
	var o *Outcome
	fetch(h, now, 0x400000, func(x Outcome) { o = &x })
	drive(t, h, &now, 10000, func() bool { return o != nil })
	if o.Level != LevelMem {
		t.Fatalf("cold fetch level = %v", o.Level)
	}
	var warm *Outcome
	fetch(h, now, 0x400008, func(x Outcome) { warm = &x }) // same line
	drive(t, h, &now, 100, func() bool { return warm != nil })
	if warm.Level != LevelL1 {
		t.Fatalf("warm fetch level = %v, want L1", warm.Level)
	}
}

func TestInclusionInvalidatesL1(t *testing.T) {
	cfg := DefaultConfig()
	// Shrink the LLC to 4KB so it is smaller than L1D reach for the test:
	// filling one LLC set evicts lines that must vanish from L1 too.
	cfg.LLC.SizeBytes = 4096
	cfg.LLC.Ways = 2
	h := New(cfg)
	var now int64
	load := func(addr uint64) {
		done := false
		load(h, now, addr, false, nil, func(Outcome) { done = true })
		drive(t, h, &now, 20000, func() bool { return done })
	}
	// LLC: 4KB/2way/64B = 32 sets; same-set stride = 2KB.
	load(0x0000)
	load(0x0800)
	load(0x1000) // evicts 0x0000 from LLC, and by inclusion from L1D
	if h.L1D().Probe(0x0000) {
		t.Fatal("inclusion violated: line evicted from LLC still in L1D")
	}
	// Re-access must go to DRAM again.
	before := h.DRAMReadsDemand
	load(0x0000)
	if h.DRAMReadsDemand != before+1 {
		t.Fatal("re-access after inclusion eviction should miss to DRAM")
	}
}

func TestPrefetcherGeneratesRequestsAndHits(t *testing.T) {
	cfg := DefaultConfig()
	cfg.EnablePrefetch = true
	cfg.Prefetch.FDP = false
	h := New(cfg)
	var now int64
	// Two loads 9 lines apart in the same direction do not form a stream;
	// walk sequentially instead. Use addresses far from other tests' habits.
	base := uint64(1 << 24)
	for i := uint64(0); i < 32; i++ {
		done := false
		load(h, now, base+i*64, false, nil, func(Outcome) { done = true })
		drive(t, h, &now, 20000, func() bool { return done })
	}
	if h.DRAMReadsPrefetch == 0 {
		t.Fatal("stream prefetcher never issued a request")
	}
	// With the stream established and fills done, later lines hit in LLC.
	drive(t, h, &now, 50000, func() bool { return h.Drained() })
	var o *Outcome
	load(h, now, base+33*64, false, nil, func(x Outcome) { o = &x })
	drive(t, h, &now, 1000, func() bool { return o != nil })
	if o.Level == LevelMem {
		t.Fatal("prefetched line should not miss to DRAM")
	}
	if h.Prefetcher().Counters().Issued == 0 {
		t.Fatal("prefetcher stats empty")
	}
}

func TestL1DMSHRBackpressure(t *testing.T) {
	cfg := DefaultConfig()
	cfg.L1DMSHRs = 2
	h := New(cfg)
	var now int64
	ok1 := load(h, now, 0x10000, false, nil, func(Outcome) {})
	ok2 := load(h, now, 0x20000, false, nil, func(Outcome) {})
	ok3 := load(h, now, 0x30000, false, nil, func(Outcome) {})
	if !ok1 || !ok2 {
		t.Fatal("loads within MSHR capacity must be accepted")
	}
	if ok3 {
		t.Fatal("load beyond MSHR capacity must be rejected")
	}
	// Same-line access merges and is accepted even when full.
	if !load(h, now, 0x10008, false, nil, func(Outcome) {}) {
		t.Fatal("mergeable load must be accepted despite full MSHRs")
	}
}

func TestManyOutstandingMissesOverlap(t *testing.T) {
	// MLP: 16 independent misses should complete in far less than 16x the
	// single-miss latency.
	single := New(DefaultConfig())
	var now int64
	done := false
	start := now
	load(single, now, 1<<20, false, nil, func(Outcome) { done = true })
	drive(t, single, &now, 10000, func() bool { return done })
	oneLat := now - start

	h := New(DefaultConfig())
	var now2 int64
	count := 0
	for i := 0; i < 16; i++ {
		// Spread across banks/channels.
		if !load(h, now2, uint64(1<<20)+uint64(i)*64*2, false, nil, func(Outcome) { count++ }) {
			t.Fatal("load rejected")
		}
	}
	drive(t, h, &now2, 100000, func() bool { return count == 16 })
	if now2 >= oneLat*8 {
		t.Fatalf("16 overlapped misses took %d cycles vs single %d — no MLP", now2, oneLat)
	}
}

func TestDeterminism(t *testing.T) {
	runOnce := func() (int64, uint64) {
		h := New(DefaultConfig())
		var now int64
		count := 0
		for i := 0; i < 32; i++ {
			load(h, now, uint64(i)*4096, false, nil, func(Outcome) { count++ })
		}
		for now = 0; count < 32; now++ {
			h.Tick(now)
		}
		return now, h.DRAMReadsDemand
	}
	c1, r1 := runOnce()
	c2, r2 := runOnce()
	if c1 != c2 || r1 != r2 {
		t.Fatalf("nondeterministic: (%d,%d) vs (%d,%d)", c1, r1, c2, r2)
	}
}

func TestLevelString(t *testing.T) {
	if LevelL1.String() != "L1" || LevelLLC.String() != "LLC" || LevelMem.String() != "Mem" {
		t.Fatal("Level strings wrong")
	}
}

func TestResetStatsPreservesCacheContents(t *testing.T) {
	h := New(DefaultConfig())
	var now int64
	done := false
	load(h, now, 0x8000, false, nil, func(Outcome) { done = true })
	drive(t, h, &now, 10000, func() bool { return done })
	h.ResetStats()
	if h.Loads != 0 || h.DRAMReadsDemand != 0 || h.L1D().Hits != 0 {
		t.Fatal("counters not zeroed")
	}
	// The line is still resident: the next access hits L1.
	var o *Outcome
	load(h, now, 0x8000, false, nil, func(x Outcome) { o = &x })
	drive(t, h, &now, 100, func() bool { return o != nil })
	if o.Level != LevelL1 {
		t.Fatalf("post-reset access level = %v, want L1 (state lost)", o.Level)
	}
}

func TestOnMissFiresForDRAMBoundLoads(t *testing.T) {
	h := New(DefaultConfig())
	var now int64
	missAt := int64(-1)
	var o *Outcome
	load(h, now, 0x9000, false, func(cy int64) { missAt = cy }, func(x Outcome) { o = &x })
	drive(t, h, &now, 10000, func() bool { return o != nil })
	if missAt < 0 {
		t.Fatal("onMiss never fired for a DRAM-bound load")
	}
	if missAt >= o.When {
		t.Fatalf("onMiss at %d should precede data at %d", missAt, o.When)
	}
	// A second load to an in-flight DRAM-bound line gets onMiss promptly too.
	h2 := New(DefaultConfig())
	var now2 int64
	var miss2 int64 = -1
	got := 0
	load(h2, now2, 0xa000, false, nil, func(Outcome) { got++ })
	for now2 = 0; now2 < 40; now2++ {
		h2.Tick(now2)
	}
	load(h2, now2, 0xa008, false, func(cy int64) { miss2 = cy }, func(Outcome) { got++ })
	drive(t, h2, &now2, 10000, func() bool { return got == 2 })
	if miss2 < 0 {
		t.Fatal("merged load never learned it was DRAM-bound")
	}
}

func TestOnMissNotCalledForHits(t *testing.T) {
	h := New(DefaultConfig())
	var now int64
	done := false
	load(h, now, 0xb000, false, nil, func(Outcome) { done = true })
	drive(t, h, &now, 10000, func() bool { return done })
	fired := false
	done = false
	load(h, now, 0xb000, false, func(int64) { fired = true }, func(Outcome) { done = true })
	drive(t, h, &now, 100, func() bool { return done })
	if fired {
		t.Fatal("onMiss fired for an L1 hit")
	}
}

// TestInclusionFoldsL1Dirtiness: when the LLC evicts a line whose L1 copy is
// dirty, the writeback to DRAM must still happen (the dirtiness folds into
// the victim).
func TestInclusionFoldsL1Dirtiness(t *testing.T) {
	cfg := DefaultConfig()
	cfg.LLC.SizeBytes = 4096
	cfg.LLC.Ways = 2
	h := New(cfg)
	var now int64
	op := func(f func(cb func(Outcome)) bool) {
		done := false
		if !f(func(Outcome) { done = true }) {
			t.Fatal("access rejected")
		}
		drive(t, h, &now, 30000, func() bool { return done })
	}
	// Dirty the line in L1 only (write-allocate; LLC copy stays clean).
	op(func(cb func(Outcome)) bool { return store(h, now, 0x0000, cb) })
	if h.DRAMWrites != 0 {
		t.Fatal("no writeback should have happened yet")
	}
	// Force the LLC set (stride 2KB) to evict line 0 while its dirty copy
	// still sits in L1.
	op(func(cb func(Outcome)) bool { return load(h, now, 0x0800, false, nil, cb) })
	op(func(cb func(Outcome)) bool { return load(h, now, 0x1000, false, nil, cb) })
	drive(t, h, &now, 30000, func() bool { return h.Drained() })
	if h.L1D().Probe(0x0000) {
		t.Fatal("inclusion violation")
	}
	if h.DRAMWrites == 0 {
		t.Fatal("dirty L1 data lost on inclusion eviction (no DRAM writeback)")
	}
}

func TestUnknownPrefetchKindPanics(t *testing.T) {
	cfg := DefaultConfig()
	cfg.EnablePrefetch = true
	cfg.PrefetchKind = "oracle"
	defer func() {
		if recover() == nil {
			t.Fatal("unknown prefetch kind must panic")
		}
	}()
	New(cfg)
}

func TestDeltaPrefetchKindWorks(t *testing.T) {
	cfg := DefaultConfig()
	cfg.EnablePrefetch = true
	cfg.PrefetchKind = "delta"
	h := New(cfg)
	var now int64
	// A constant 5-line stride the delta engine should cover.
	for i := uint64(0); i < 24; i++ {
		done := false
		load(h, now, 1<<22+i*5*64, false, nil, func(Outcome) { done = true })
		drive(t, h, &now, 30000, func() bool { return done })
	}
	if h.DRAMReadsPrefetch == 0 {
		t.Fatal("delta engine never prefetched a constant stride")
	}
}

// cbSink adapts per-access test callbacks to the token interface: every
// access gets a fresh Seq that indexes its callbacks.
type cbSink struct {
	miss map[uint64]func(int64)
	done map[uint64]func(Outcome)
	seq  uint64
}

func (s *cbSink) Miss(t Token, now int64) {
	if f := s.miss[t.Seq]; f != nil {
		f(now)
	}
}

func (s *cbSink) Done(t Token, o Outcome) {
	if f := s.done[t.Seq]; f != nil {
		f(o)
	}
}

// callbacks returns requestor 0's callback sink, installing one on first use.
func callbacks(h *Hierarchy) *cbSink {
	if s, ok := h.fr[0].sink.(*cbSink); ok {
		return s
	}
	s := &cbSink{miss: map[uint64]func(int64){}, done: map[uint64]func(Outcome){}}
	h.SetSink(0, s)
	return s
}

func (s *cbSink) token(addr uint64, onMiss func(int64), done func(Outcome)) Token {
	s.seq++
	s.miss[s.seq], s.done[s.seq] = onMiss, done
	return Token{Addr: addr, Seq: s.seq}
}

// load, store and fetch issue requestor 0's access with per-access
// callbacks: onMiss (optional) hears the DRAM-bound notice, done the
// completion.
func load(h *Hierarchy, now int64, addr uint64, noWait bool, onMiss func(int64), done func(Outcome)) bool {
	t := callbacks(h).token(addr, onMiss, done)
	t.NoWait = noWait
	return h.Load(now, t)
}

func store(h *Hierarchy, now int64, addr uint64, done func(Outcome)) bool {
	return h.Store(now, callbacks(h).token(addr, nil, done))
}

func fetch(h *Hierarchy, now int64, addr uint64, done func(Outcome)) bool {
	return h.Fetch(now, callbacks(h).token(addr, nil, done))
}

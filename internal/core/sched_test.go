package core

import (
	"bytes"
	"math/rand"
	"testing"

	"runaheadsim/internal/isa"
	"runaheadsim/internal/prog"
	"runaheadsim/internal/trace"
)

// issueRecorder is a trace.Sink that keeps the exact issue stream — (cycle,
// seq) pairs in emission order — plus a seq→PC map built from dispatch
// events. The lockstep test compares streams across schedulers; the PRF-read
// test maps issued uops back to their static source counts.
type issueRecorder struct {
	issues []issueRec
	pcOf   map[uint64]uint64
}

type issueRec struct {
	cycle int64
	seq   uint64
}

func (r *issueRecorder) Emit(ev *trace.Event) {
	switch ev.Kind {
	case trace.Dispatch:
		if r.pcOf != nil {
			r.pcOf[ev.Seq] = ev.PC
		}
	case trace.Issue:
		r.issues = append(r.issues, issueRec{cycle: ev.Cycle, seq: ev.Seq})
	}
}

func (r *issueRecorder) Close() error { return nil }

// runRecorded runs one core over p to target commits with an issue recorder
// attached, drains it, and returns the recorder and the machine snapshot.
func runRecorded(t *testing.T, cfg Config, p *prog.Program, target uint64) (*issueRecorder, *Core, []byte) {
	t.Helper()
	c := New(cfg, p)
	rec := &issueRecorder{pcOf: make(map[uint64]uint64)}
	c.SetEventSink(rec, 0)
	c.Run(target)
	c.SetEventSink(nil, 0)
	if err := c.Drain(); err != nil {
		t.Fatalf("%v scheduler: %v", cfg.Scheduler, err)
	}
	snap, err := c.Snapshot()
	if err != nil {
		t.Fatalf("%v scheduler: %v", cfg.Scheduler, err)
	}
	return rec, c, snap
}

// lockstepCompare runs the same program under both schedulers and requires
// the complete issue streams — which uop issued on which cycle, in selection
// order — to be identical, along with final cycle counts, statistics-bearing
// snapshots, and architectural state. This is the acceptance invariant for
// the event-driven scheduler: not "same final answer", but the same selection
// sequence cycle by cycle.
func lockstepCompare(t *testing.T, tag string, cfg Config, p *prog.Program, target uint64) {
	t.Helper()
	evCfg, scanCfg := cfg, cfg
	evCfg.Scheduler = SchedEvent
	scanCfg.Scheduler = SchedScan
	evRec, evCore, evSnap := runRecorded(t, evCfg, p, target)
	scanRec, scanCore, scanSnap := runRecorded(t, scanCfg, p, target)

	if len(evRec.issues) != len(scanRec.issues) {
		t.Fatalf("%s: event scheduler issued %d uops, scan issued %d", tag, len(evRec.issues), len(scanRec.issues))
	}
	for i := range evRec.issues {
		if evRec.issues[i] != scanRec.issues[i] {
			t.Fatalf("%s: issue %d diverges: event picked seq %d at cycle %d, scan picked seq %d at cycle %d",
				tag, i, evRec.issues[i].seq, evRec.issues[i].cycle, scanRec.issues[i].seq, scanRec.issues[i].cycle)
		}
	}
	if evCore.Now() != scanCore.Now() {
		t.Fatalf("%s: event scheduler finished at cycle %d, scan at %d", tag, evCore.Now(), scanCore.Now())
	}
	if evCore.ArchRegs() != scanCore.ArchRegs() {
		t.Fatalf("%s: architectural register state diverged", tag)
	}
	// Snapshot bytes carry every statistic, the memory image, cache and
	// predictor contents; the configuration fingerprint excludes Scheduler,
	// so byte equality is the strongest equivalence statement available.
	if !bytes.Equal(evSnap, scanSnap) {
		t.Fatalf("%s: machine snapshots differ between schedulers (%d vs %d bytes)", tag, len(evSnap), len(scanSnap))
	}
}

// TestSchedulerLockstep is the scan-vs-event property test over randomized
// programs and all runahead flavors the paper evaluates (baseline, runahead
// buffer, runahead buffer + chain cache), plus the hybrid and traditional
// modes that route through the same issue logic.
func TestSchedulerLockstep(t *testing.T) {
	if testing.Short() {
		t.Skip("differential simulation is slow")
	}
	modes := []Mode{ModeNone, ModeTraditional, ModeBuffer, ModeBufferCC, ModeHybrid}
	for seed := int64(1); seed <= 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		p := randomProgram(rng)
		cfg := testConfig(modes[seed%int64(len(modes))])
		cfg.Enhancements = seed%2 == 0
		lockstepCompare(t, p.Name, cfg, p, 10_000)
	}
}

// TestSchedulerLockstepMemoryBound repeats the lockstep check on the
// memory-bound gather workload, where runahead intervals (and therefore
// flush/re-enroll churn in the scheduler) dominate.
func TestSchedulerLockstepMemoryBound(t *testing.T) {
	if testing.Short() {
		t.Skip("differential simulation is slow")
	}
	p := gatherLoop(2)
	for _, mode := range []Mode{ModeNone, ModeBufferCC, ModeHybrid} {
		lockstepCompare(t, "gather/"+mode.String(), testConfig(mode), p, 20_000)
	}
}

// srcCount returns how many register sources a static uop names — the number
// of physical-register-file reads its issue costs.
func srcCount(u *isa.Uop) int {
	n := 0
	if u.Src1 != isa.RegNone {
		n++
	}
	if u.Src2 != isa.RegNone {
		n++
	}
	return n
}

// TestPRFReadsCountsActualSources pins the PRF-read accounting: the energy
// model charges one read per register source actually named, summed over
// every issued uop (wrong-path and runahead included — those reads happen in
// hardware too). The seed accounting charged a flat two reads per issue,
// over-counting immediates, moves, and single-source ops.
func TestPRFReadsCountsActualSources(t *testing.T) {
	p := storeLoadLoop() // known mix: 0-source MOVIs, 1-source ALU/loads, 2-source ops
	c := New(testConfig(ModeNone), p)
	rec := &issueRecorder{pcOf: make(map[uint64]uint64)}
	c.SetEventSink(rec, 0)
	st := c.Run(20_000)
	c.SetEventSink(nil, 0)

	expected := uint64(0)
	for _, is := range rec.issues {
		pc, ok := rec.pcOf[is.seq]
		if !ok {
			t.Fatalf("issued seq %d never dispatched", is.seq)
		}
		idx := int((pc - isa.TextBase) / isa.UopBytes)
		if idx < 0 || idx >= p.NumUops() {
			t.Fatalf("issued seq %d has PC %#x outside the program", is.seq, pc)
		}
		expected += uint64(srcCount(&p.Uops[idx]))
	}
	if st.Issued != uint64(len(rec.issues)) {
		t.Fatalf("Issued = %d but %d issue events traced", st.Issued, len(rec.issues))
	}
	if st.PRFReads != expected {
		t.Fatalf("PRFReads = %d, want %d (one per named source of each issued uop)", st.PRFReads, expected)
	}
	// The mix must actually exercise the fix: with 0- and 1-source uops in
	// flight, the correct count is strictly below the old flat 2×issued.
	if st.PRFReads >= 2*st.Issued {
		t.Fatalf("PRFReads = %d not below 2×Issued = %d; instruction mix does not cover the regression", st.PRFReads, 2*st.Issued)
	}
}

// TestPredictedEAConservative pins the disambiguation fix: a load whose
// address sources are poisoned has an unknowable address, so predictedEA must
// refuse (not fabricate an EA from the stale register value) and both
// schedulers' loadCanIssue must conservatively hold the load.
func TestPredictedEAConservative(t *testing.T) {
	c := New(testConfig(ModeNone), simpleLoop())
	u := &isa.Uop{Op: isa.LD, Dst: isa.Reg(3), Src1: isa.Reg(1), Src2: isa.RegNone}
	d := &DynInst{Seq: 7, U: u, PDst: 100, PSrc1: 64, PSrc2: noPhys, POld: noPhys, Renamed: true}

	c.prf.ready[64] = true
	c.prf.val[64] = 0x2000
	if ea, ok := d.predictedEA(c); !ok || ea != 0x2000 {
		t.Fatalf("clean sources: predictedEA = (%#x, %v), want (0x2000, true)", ea, ok)
	}

	c.prf.poison[64] = true
	if _, ok := d.predictedEA(c); ok {
		t.Fatal("poisoned base register: predictedEA claimed the address is knowable")
	}
	if c.loadCanIssueScan(0, d) {
		t.Fatal("scan scheduler issued a load with an unknowable address")
	}
	if c.loadCanIssueEvent(d) {
		t.Fatal("event scheduler issued a load with an unknowable address")
	}

	// A scaled load also depends on its index register.
	c.prf.poison[64] = false
	us := &isa.Uop{Op: isa.LD, Dst: isa.Reg(3), Src1: isa.Reg(1), Src2: isa.Reg(2), Scaled: true}
	ds := &DynInst{Seq: 8, U: us, PDst: 101, PSrc1: 64, PSrc2: 65, POld: noPhys, Renamed: true}
	c.prf.poison[65] = true
	if _, ok := ds.predictedEA(c); ok {
		t.Fatal("poisoned index register: predictedEA claimed the address is knowable")
	}
}

// TestWatchdogRunaheadEntryProgress pins the watchdog fix: committing to a
// runahead entry is forward progress (the preceding stall was a legal
// DRAM-bound wait), so entry must advance lastProgress before any
// pseudo-retirement happens.
func TestWatchdogRunaheadEntryProgress(t *testing.T) {
	c := New(testConfig(ModeTraditional), simpleLoop())
	c.now = 1000
	c.lastProgress = 3
	u := &isa.Uop{Op: isa.LD, Dst: isa.Reg(3), Src1: isa.Reg(1), Src2: isa.RegNone}
	d := &DynInst{Seq: 1, PC: isa.TextBase, U: u, PDst: 100, PSrc1: 64, PSrc2: noPhys, POld: noPhys, DRAMBound: true}
	c.tryEnterRunahead(d)
	if !c.ra.active {
		t.Fatal("traditional-mode entry did not activate runahead")
	}
	if c.lastProgress != c.now {
		t.Fatalf("runahead entry left lastProgress at %d (now %d)", c.lastProgress, c.now)
	}
}

// TestWatchdogSurvivesRunaheadEntry drives the memory-bound workload with the
// watchdog clock pinned to its limit on every pre-entry cycle. Entry must
// reset the clock; if it did not, the first entry would trip the watchdog
// immediately (the panic the seed code produced under a small WatchdogCycles
// with long legal stalls).
func TestWatchdogSurvivesRunaheadEntry(t *testing.T) {
	for _, mode := range []Mode{ModeTraditional, ModeBufferCC} {
		cfg := testConfig(mode)
		cfg.WatchdogCycles = 10_000
		c := New(cfg, gatherLoop(0))
		entered := false
		c.SetCycleHook(func() {
			if c.ra.active {
				entered = true
				return
			}
			// Keep the machine exactly at the watchdog limit until entry: any
			// post-entry cycle without progress accounting would panic.
			c.lastProgress = c.now - cfg.WatchdogCycles
		})
		c.Run(3_000)
		if !entered {
			t.Fatalf("%v: gather workload never entered runahead", mode)
		}
	}
}

// sleepKernel keeps loads held behind unknown-address stores. Each
// iteration's store takes its address from a three-deep div chain and is
// followed by up to a dozen independent L1-resident loads, which wait tens of
// cycles for that address. A branch on a pseudo-random bit sits between the
// loads and mispredicts about half the time, squashing the held loads behind
// it. With gather set, a DRAM miss heads each iteration, so runahead enters
// while loads are held; without it the kernel stays L1-resident.
func sleepKernel(gather bool) *prog.Program {
	b := prog.NewBuilder("sleep")
	const slots = 1 << 14
	big := b.Alloc(slots*2048, 64)
	arr := b.Alloc(4096, 64)
	const rI, rBig, rMask, rG, rArr, rOne, rSeed, rQ, rT, rAcc, rV = 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11
	entry := b.Block("entry")
	loop := b.Block("loop")
	fall := b.Block("fall")
	taken := b.Block("taken")
	entry.Movi(rI, 0).Movi(rBig, int64(big)).Movi(rMask, slots-1).Movi(rArr, int64(arr)).
		Movi(rOne, 1).Movi(rSeed, 12345).Movi(rAcc, 0).Jmp(loop)
	if gather {
		loop.OpI(isa.MULI, rG, rI, 40503).Op(isa.AND, rG, rG, rMask).
			OpI(isa.MULI, rG, rG, 2048).Add(rG, rG, rBig).Ld(rG, rG, 0).Add(rAcc, rAcc, rG)
	}
	// The store lands in arr[0:64]; every load reads past it, so once the
	// address is known nothing overlaps and the loads issue.
	loop.Op(isa.DIV, rQ, rSeed, rOne).Op(isa.DIV, rQ, rQ, rOne).Op(isa.DIV, rQ, rQ, rOne).
		OpI(isa.ANDI, rQ, rQ, 0x38).Add(rQ, rQ, rArr).St(rQ, 0, rI).
		OpI(isa.MULI, rSeed, rSeed, 1103515245).Addi(rSeed, rSeed, 12345).
		OpI(isa.ANDI, rT, rSeed, 1<<16)
	for j := int64(0); j < 4; j++ {
		loop.Ld(rV, rArr, 64+8*j).Add(rAcc, rAcc, rV)
	}
	loop.Bnez(rT, taken)
	for j := int64(0); j < 4; j++ {
		fall.Ld(rV, rArr, 128+8*j).Add(rAcc, rAcc, rV)
	}
	for j := int64(0); j < 4; j++ {
		taken.Ld(rV, rArr, 192+8*j).Add(rAcc, rAcc, rV)
	}
	taken.Addi(rI, rI, 1).Jmp(loop)
	return b.MustBuild()
}

// heldLoads appends to dst the ready loads the next select holds back, read
// from the scheduler's bitmaps: outside runahead, those past the oldest
// in-window store with no address.
func heldLoads(c *Core, dst []schedRef) []schedRef {
	if c.ra.active {
		return dst
	}
	s := &c.sched
	n, head := len(c.rob.entries), c.rob.head
	end := head + c.rob.count
	for x := s.unknown.next(nil, head, end, end, n); x < end; x++ {
		if p := x % n; s.ready.has(p) && s.loads.has(p) {
			d := c.rob.entries[p]
			dst = append(dst, schedRef{d: d, gen: d.gen})
		}
	}
	return dst
}

// TestSleepingLoadsLockstep steps the event scheduler and the scan reference
// side by side, cycle by cycle, on sleepKernel: the same uops must issue on
// the same cycles, and the deep invariants (every scheduler bitmap checked
// against the ROB) must hold after every cycle. The kernel must actually
// exercise the load mask — loads held behind an unknown-address store, held
// loads squashed by a mispredicted branch, and (in the runahead modes)
// runahead entered over held loads — or the test fails rather than pass
// vacuously.
func TestSleepingLoadsLockstep(t *testing.T) {
	if testing.Short() {
		t.Skip("differential simulation is slow")
	}
	p := sleepKernel(true)
	for _, mode := range []Mode{ModeNone, ModeTraditional, ModeBufferCC} {
		evCfg := testConfig(mode)
		evCfg.Scheduler = SchedEvent
		scanCfg := evCfg
		scanCfg.Scheduler = SchedScan
		ev, scan := New(evCfg, p), New(scanCfg, p)
		evRec, scanRec := &issueRecorder{}, &issueRecorder{}
		ev.SetEventSink(evRec, 0)
		scan.SetEventSink(scanRec, 0)

		var held, squashed, entered int // cycles that covered each path
		seen := 0                       // issues already compared
		var prev []schedRef             // loads held at the end of the previous cycle
		for i := 0; i < 12_000; i++ {
			wasActive := ev.ra.active
			ev.Cycle()
			scan.Cycle()
			if ev.Now() != scan.Now() {
				t.Fatalf("%v: event core at cycle %d, scan at %d", mode, ev.Now(), scan.Now())
			}
			if len(evRec.issues) != len(scanRec.issues) {
				t.Fatalf("%v cycle %d: event scheduler has issued %d uops, scan %d", mode, ev.Now(), len(evRec.issues), len(scanRec.issues))
			}
			for ; seen < len(evRec.issues); seen++ {
				if evRec.issues[seen] != scanRec.issues[seen] {
					t.Fatalf("%v cycle %d: event picked seq %d, scan picked seq %d", mode, ev.Now(), evRec.issues[seen].seq, scanRec.issues[seen].seq)
				}
			}
			if err := ev.CheckInvariants(true); err != nil {
				t.Fatalf("%v cycle %d: %v\n%s", mode, ev.Now(), err, ev.DebugDump())
			}
			// A load held at the end of last cycle that is gone now was
			// squashed: runahead was not active then (it holds nothing), so
			// no runahead exit could have flushed it, and an unissued load
			// cannot commit within a cycle.
			for _, r := range prev {
				if r.d.gen != r.gen || r.d.Squashed {
					squashed++
					break
				}
			}
			if len(prev) > 0 && !wasActive && ev.ra.active {
				entered++
			}
			if prev = heldLoads(ev, prev[:0]); len(prev) > 0 {
				held++
			}
		}
		t.Logf("%v: %d cycles end with loads held, %d squash held loads, %d enter runahead over held loads", mode, held, squashed, entered)
		if held == 0 || squashed == 0 || (mode != ModeNone && entered == 0) {
			t.Fatalf("%v: load mask not covered", mode)
		}
		ev.SetEventSink(nil, 0)
		scan.SetEventSink(nil, 0)
		evSnap, scanSnap := drainedSnapshot(t, ev), drainedSnapshot(t, scan)
		if !bytes.Equal(evSnap, scanSnap) {
			t.Fatalf("%v: machine snapshots differ between schedulers (%d vs %d bytes)", mode, len(evSnap), len(scanSnap))
		}
	}
}

// readyRecount counts, from the ROB alone, the renamed, unissued uops whose
// sources are all ready.
func readyRecount(c *Core) int {
	n := 0
	for i := 0; i < c.rob.size(); i++ {
		d := c.rob.at(i)
		if d.Renamed && !d.Issued && !d.Executed && c.srcReady(d.PSrc1) && c.srcReady(d.PSrc2) {
			n++
		}
	}
	return n
}

// selectRecount is a trace sink that recounts the ROB as the cycle's select
// saw it. Nothing changes between the start of the select and its first
// issue, and a select that issues nothing changes nothing before rename
// dispatches its first uop (traced before the uop is marked renamed). So the
// first Issue or Dispatch event of a cycle sees the select's ROB, less the
// issuing uop for an Issue; a cycle with neither ends with that ROB.
type selectRecount struct {
	c     *Core
	seen  bool
	count int
}

func (r *selectRecount) Emit(ev *trace.Event) {
	if r.seen || (ev.Kind != trace.Issue && ev.Kind != trace.Dispatch) {
		return
	}
	r.seen = true
	r.count = readyRecount(r.c)
	if ev.Kind == trace.Issue {
		r.count++
	}
}

func (r *selectRecount) Close() error { return nil }

// TestQueueDepthCountsReadyUops pins the queue-depth profile counter to its
// definition on sleepKernel: every select adds exactly the number of ready,
// unissued uops in the ROB — held loads included, squashed uops never.
func TestQueueDepthCountsReadyUops(t *testing.T) {
	for _, mode := range []Mode{ModeNone, ModeTraditional, ModeBufferCC} {
		c := New(testConfig(mode), sleepKernel(true))
		r := &selectRecount{c: c}
		c.SetEventSink(r, 0)
		for c.st.Committed < 20_000 {
			before := c.prof.schedQueueSum
			r.seen = false
			c.Cycle()
			if !r.seen {
				r.count = readyRecount(c)
			}
			if got := c.prof.schedQueueSum - before; got != uint64(r.count) {
				t.Fatalf("%v cycle %d: queue depth grew by %d, but the ROB holds %d ready, unissued uops", mode, c.now, got, r.count)
			}
		}
		t.Logf("%v: queued entries summed over selects = %d", mode, c.prof.schedQueueSum)
	}
}

// drainedSnapshot drains c and returns its machine snapshot.
func drainedSnapshot(t *testing.T, c *Core) []byte {
	t.Helper()
	if err := c.Drain(); err != nil {
		t.Fatal(err)
	}
	snap, err := c.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	return snap
}

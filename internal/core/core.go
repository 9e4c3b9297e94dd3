package core

import (
	"fmt"

	"runaheadsim/internal/bpred"
	"runaheadsim/internal/isa"
	"runaheadsim/internal/memsys"
	"runaheadsim/internal/metrics"
	"runaheadsim/internal/prog"
	"runaheadsim/internal/trace"
)

// eventWindow bounds how far ahead core-internal events (execution
// completions, load replays) can be scheduled. The longest operation latency
// is far below this.
const eventWindow = 128

// evKind names a core-internal event. Events are typed records rather than
// closures so the per-uop hot path allocates nothing beyond the DynInst
// itself; every event is a (kind, uop) pair dispatched by fireEvent.
type evKind uint8

const (
	evExecLoad    evKind = iota // AGU + disambiguation + memory access
	evExecStore                 // AGU + store-data capture
	evExecBranch                // branch resolution
	evALUComplete               // ALU/MUL/DIV/FP result write-back
	evComplete                  // plain completion (value already in d.Value)
)

// coreEvent is one scheduled core-internal event. gen snapshots the uop's
// pool generation at schedule time; a mismatch at fire time means the slot
// was recycled and the event is dead. at is the cycle the event is due;
// Cycle verifies it on dispatch — a mismatch means the warped clock jumped
// over a due event, which the warp's target computation must make impossible.
type coreEvent struct {
	kind evKind
	d    *DynInst
	gen  uint64
	at   int64
}

// Core is the simulated processor: one out-of-order core attached to the
// memory hierarchy, running one program.
type Core struct {
	cfg Config
	p   *prog.Program
	mem *prog.Memory // architectural (committed) memory image
	h   *memsys.Hierarchy
	// memReq is this core's requestor ID in the (possibly shared) hierarchy:
	// 0 for a private single-core hierarchy, the core index in a cluster.
	//simlint:nosnapshot construction-time topology; the restoring host rebuilds the same cluster shape
	memReq int
	bp     *bpred.Predictor

	prf *regFile
	ren *renamer
	rob *robFile //simlint:nosnapshot empty in a drained core; restore targets a freshly constructed machine
	st  *Stats

	now int64
	seq uint64

	// archVal mirrors the committed architectural register values — the
	// checkpoint runahead restores.
	archVal [isa.NumArchRegs]int64

	// Front end.
	fetchPC         uint64
	fetchStallUntil int64
	fetchGen        uint64 // bumped on redirects (snapshot/debug epoch marker)
	icacheWait      bool   //simlint:nosnapshot no I-fetch is outstanding in a drained core
	//simlint:nosnapshot only meaningful while icacheWait is set, which a drained core never is
	fetchWaitLine uint64 // line the live outstanding I-fetch is waiting on
	lastFetchLine uint64
	//simlint:nosnapshot the front-end queue is empty in a drained core
	frontQ       []*DynInst // fetched & decoding; ready for rename at readyAt
	frontReadyAt []int64    //simlint:nosnapshot parallel to frontQ, which drains empty
	//simlint:nosnapshot head index of frontQ, which drains empty
	frontHead int // index of the queue head (see frontPop)

	// Back end occupancy.
	rsCount  int       //simlint:nosnapshot zero in a drained core (occupancy counter)
	lqCount  int       //simlint:nosnapshot zero in a drained core (occupancy counter)
	sqCount  int       //simlint:nosnapshot zero in a drained core (occupancy counter)
	storeBuf []sbEntry //simlint:nosnapshot the store buffer drains empty before a snapshot
	sbHead   int       //simlint:nosnapshot head index of storeBuf, which drains empty

	// Core-internal scheduled events (completions, replays). Slots are
	// reused in place: firing truncates to length zero, keeping the backing
	// arrays warm. pendingCoreEvents counts events in the wheel (including
	// ones whose uop died; they still fire and no-op) so the clock warp can
	// skip the slot scan entirely when the wheel is empty.
	events            [eventWindow][]coreEvent //simlint:nosnapshot the event wheel is empty in a quiesced core
	pendingCoreEvents int                      //simlint:nosnapshot zero when the wheel is empty
	//simlint:nosnapshot cache over the empty wheel; recomputed as events are scheduled
	nextCoreEvCache int64 // lower bound on the earliest pending event's cycle

	// Event-driven wakeup/select scheduler state (see sched.go). Always
	// allocated; under SchedScan only the store-address index is bypassed and
	// the wakeup structures stay empty. The restore path rebuilds it, so the
	// snapshot-completeness contract sees it referenced.
	sched issueSched

	// dynPool recycles DynInst allocations. A uop is released exactly once —
	// at commit, pseudo-retire, squash, or front-end discard — and its gen is
	// bumped so outstanding lazy references recognize the slot as recycled.
	// Reuse order is LIFO and deterministic.
	//simlint:nosnapshot host-side allocation pool; its contents never reach simulated state
	dynPool []*DynInst
	// slots lists every DynInst the core ever allocated, indexed by
	// DynInst.slot, so memory tokens can name a uop without a pointer.
	//simlint:nosnapshot host-side allocation index; its contents never reach simulated state
	slots []*DynInst

	// Runahead machinery.
	ra      raState
	racache *raCache
	ccache  *chainCache

	// missAge records, per line, the cycle at which the line's DRAM request
	// was first issued. The first runahead enhancement ("issued to memory
	// less than 250 instructions ago") reads it: a blocking load whose
	// underlying request is old — typically because a previous runahead
	// interval already prefetched it — is about to return, so entering
	// runahead for it would buy almost nothing.
	missAge map[uint64]int64

	// pcScore is the adaptive-hybrid policy's per-PC productivity table.
	pcScore map[uint64]uint8

	// Instrumentation.
	dep    *depTracker //simlint:nosnapshot DepTrack cores refuse to snapshot (no wire format)
	tracer *Tracer     //simlint:nosnapshot observability only; the restoring host attaches its own
	//simlint:nosnapshot observability only; rebuilt from config by the restoring host
	flight   *trace.Ring    // always-on flight recorder (nil when disabled)
	flightIn int64          //simlint:nosnapshot sampling countdown for the non-snapshotted recorder
	tl       *timelineState //simlint:nosnapshot observability only; the restoring host attaches its own
	//simlint:nosnapshot host hook; the restoring harness re-registers it
	onCommit func(*DynInst) // correct-path retirement hook (simcheck oracle)
	//simlint:nosnapshot host hook; the restoring harness re-registers it
	onCycle      func() // end-of-cycle hook (simcheck invariants)
	lastProgress int64
	statsZero    int64 // cycle at the last ResetStats

	// CPI-stack accounting signals.
	//simlint:nosnapshot per-cycle scratch; zero between cycles
	cycleCommits       int   // correct-path commits this cycle
	branchRecoverUntil int64 // redirect+refill shadow of the last misprediction
	raRecoverUntil     int64 // flush+refill shadow of the last runahead exit

	// Clock-warp signals (warp.go). cycleIssued/cycleRenamed gate the
	// quiescence detector; warps/warpedCycles count its work for reporting
	// and deliberately live outside Stats so snapshot bytes stay identical
	// across clock modes.
	cycleIssued  int   //simlint:nosnapshot per-cycle scratch; zero between cycles
	cycleRenamed int   //simlint:nosnapshot per-cycle scratch; zero between cycles
	warps        int64 //simlint:nosnapshot host-side speed accounting; kept out so bytes match across clock modes
	warpedCycles int64 //simlint:nosnapshot host-side speed accounting; kept out so bytes match across clock modes

	// prof accumulates simulator self-profiling counters in plain fields;
	// publishMetrics (metrics.go) flushes deltas to the process-wide
	// registry at Run boundaries. Never snapshotted, never part of Stats.
	//simlint:nosnapshot simulator self-profiling; flushed to the metrics registry, never simulated state
	prof coreProf

	// draining gates the fetch stage while Drain runs the machine to
	// quiescence for a snapshot.
	//simlint:nosnapshot transient Drain flag; snapshots are taken after draining completes
	draining bool
}

type sbEntry struct {
	addr     uint64
	inflight bool
}

// New builds a core running program p. The program's initial memory image is
// cloned, so multiple cores can run the same program.
func New(cfg Config, p *prog.Program) *Core {
	return newCore(cfg, p, p.NewMemory(), nil, 0)
}

// NewShared builds a core running program p as requestor req of hierarchy h.
// The multi-core cluster uses it to attach N cores to one shared memory
// system; h must have been built from cfg.Mem (with the requestor count and
// DRAM reference-mode choices the caller wants). The program's initial
// memory image is cloned, so multiple cores can run the same program.
func NewShared(cfg Config, p *prog.Program, h *memsys.Hierarchy, req int) *Core {
	return newCore(cfg, p, p.NewMemory(), h, req)
}

// newCore builds a core whose committed memory image is mem. A nil h gives
// the core a hierarchy of its own, built from cfg.Mem.
func newCore(cfg Config, p *prog.Program, mem *prog.Memory, h *memsys.Hierarchy, req int) *Core {
	if h == nil {
		// The per-cycle reference kernel keeps the seed's per-cycle DRAM
		// grant scan, so the equivalence suite compares two independently
		// computed readiness schedules (horizon vs. exhaustive scan), not
		// one fast path against itself.
		cfg.Mem.DRAM.Reference = cfg.ClockMode == ClockTick
		h = memsys.New(cfg.Mem)
	}
	if err := cfg.Validate(); err != nil {
		panic(err.Error())
	}
	if err := p.Validate(); err != nil {
		panic(fmt.Sprintf("core: invalid program: %v", err))
	}
	c := &Core{
		cfg:     cfg,
		p:       p,
		mem:     mem,
		h:       h,
		memReq:  req,
		bp:      bpred.New(cfg.BPred),
		prf:     newRegFile(cfg.NumPhysRegs),
		ren:     newRenamer(cfg.NumPhysRegs),
		rob:     newROB(cfg.ROBSize),
		st:      newStats(),
		fetchPC: p.AddrOf(0),
		racache: newRACache(cfg.RACacheBytes, cfg.RACacheWays, cfg.RACacheLineBytes),
		ccache:  newChainCache(cfg.ChainCacheEntries),
		missAge: make(map[uint64]int64),
		sched:   newIssueSched(cfg.NumPhysRegs, cfg.ROBSize),
	}
	for i := 0; i < isa.NumArchRegs; i++ {
		c.prf.ready[i] = true
	}
	if cfg.DepTrack {
		c.dep = newDepTracker()
	}
	c.lastFetchLine = ^uint64(0)
	if n := cfg.FlightRecorderEvents; n >= 0 {
		if n == 0 {
			n = defaultFlightEvents
		}
		c.flight = trace.NewRing(n)
		c.flightIn = flightSampleEvery
	}
	c.installMemHooks()
	if metrics.Enabled {
		regCoreMetrics() // instruments exist before the first warp observes one
	}
	h.SetSink(req, (*memSink)(c))
	return c
}

// Stats returns the core's statistics.
func (c *Core) Stats() *Stats { return c.st }

// Mem returns the committed memory image (for equivalence tests).
func (c *Core) Mem() *prog.Memory { return c.mem }

// ArchRegs returns the committed architectural register values.
func (c *Core) ArchRegs() [isa.NumArchRegs]int64 { return c.archVal }

// Hierarchy returns the memory system (for statistics).
func (c *Core) Hierarchy() *memsys.Hierarchy { return c.h }

// Bpred returns the branch predictor (for statistics).
func (c *Core) Bpred() *bpred.Predictor { return c.bp }

// Now returns the current cycle.
func (c *Core) Now() int64 { return c.now }

// CachedChains returns the dependence chains currently held in the chain
// cache (for inspection; see Chain.String for Figure 7-style rendering).
func (c *Core) CachedChains() []Chain { return c.ccache.CachedChains() }

// newDyn returns a zeroed DynInst, reusing a recycled slot when one is
// available. The generation survives the reset — that is the whole point.
func (c *Core) newDyn() *DynInst {
	n := len(c.dynPool)
	if n == 0 {
		c.prof.dynPoolNews++
		d := &DynInst{slot: int32(len(c.slots))}
		c.slots = append(c.slots, d)
		return d
	}
	c.prof.dynPoolHits++
	d := c.dynPool[n-1]
	c.dynPool[n-1] = nil
	c.dynPool = c.dynPool[:n-1]
	*d = DynInst{gen: d.gen, slot: d.slot}
	return d
}

// freeDyn releases a uop that has left the machine. Bumping gen invalidates
// every outstanding lazy reference (events, memory tokens, scheduler
// entries) without searching for them.
func (c *Core) freeDyn(d *DynInst) {
	d.gen++
	c.dynPool = append(c.dynPool, d)
}

func (c *Core) schedule(at int64, kind evKind, d *DynInst) {
	if at <= c.now {
		at = c.now + 1
	}
	if at-c.now >= eventWindow {
		panicEventWindow()
	}
	slot := at % eventWindow
	c.events[slot] = append(c.events[slot], coreEvent{kind: kind, d: d, gen: d.gen, at: at})
	if c.pendingCoreEvents == 0 || at < c.nextCoreEvCache {
		c.nextCoreEvCache = at
	}
	c.pendingCoreEvents++
}

// nextCoreEventAt returns the cycle of the earliest scheduled core event, or
// memsys.Never when the wheel is empty. Every slot holds events for exactly
// one future cycle (schedule bounds at-now to the window), so the first
// non-empty slot going forward is the answer. nextCoreEvCache keeps the call
// O(1) on the warp's hot path: schedule maintains it as the running minimum,
// and it only goes stale (pointing at an already-fired cycle) when the
// minimum event fires — the one case that pays for a wheel scan to refresh
// it. Only the warp calls this, and only when pendingCoreEvents > 0.
func (c *Core) nextCoreEventAt() int64 {
	if c.nextCoreEvCache > c.now {
		return c.nextCoreEvCache
	}
	for dt := int64(1); dt < eventWindow; dt++ {
		if len(c.events[(c.now+dt)%eventWindow]) > 0 {
			c.nextCoreEvCache = c.now + dt
			return c.now + dt
		}
	}
	return memsys.Never
}

// fireEvent dispatches one typed event. ALU results are computed here rather
// than at issue: the sources of an issued uop are stable (ready bits are
// monotonic for a consumer's lifetime and physical registers are never
// reused while a reader is in flight), so the value is the same and the
// closure capture the old scheduler needed is avoided.
func (c *Core) fireEvent(ev coreEvent) {
	d := ev.d
	if d.gen != ev.gen {
		return // the slot was recycled; this event belongs to a dead uop
	}
	switch ev.kind {
	case evExecLoad:
		c.execLoad(d)
	case evExecStore:
		c.execStore(d)
	case evExecBranch:
		c.execBranch(d)
	case evALUComplete:
		if d.Squashed || d.Executed {
			return
		}
		d.Prod1, d.Prod2 = c.srcProd(d.PSrc1), c.srcProd(d.PSrc2)
		d.Value = prog.Eval(d.U, c.srcVal(d.PSrc1), c.srcVal(d.PSrc2))
		c.complete(d)
	case evComplete:
		c.complete(d)
	}
}

// Run executes until target correct-path uops have committed. It returns the
// statistics (also available via Stats).
func (c *Core) Run(target uint64) *Stats {
	for c.st.Committed < target {
		c.Cycle()
		c.WatchdogCheck()
	}
	return c.FinalizeRun()
}

// WatchdogCheck panics when the core has made no forward progress for
// Config.WatchdogCycles cycles (and that bound is positive). Run calls it
// every cycle; the multi-core cluster calls it per core per step, so a
// wedged core in a mix dies with the same diagnostics as a single-core run.
func (c *Core) WatchdogCheck() {
	if c.cfg.WatchdogCycles > 0 && c.now-c.lastProgress > c.cfg.WatchdogCycles {
		msg := fmt.Sprintf("core: watchdog — no progress for %d cycles at cycle %d (program %q, mode %v, ROB %d/%d, committed %d, runahead=%v)",
			c.cfg.WatchdogCycles, c.now, c.p.Name, c.cfg.Mode, c.rob.size(), c.cfg.ROBSize, c.st.Committed, c.ra.active)
		// Pin the terminal condition into the flight recorder so the
		// crash dump ends with the why, then die. The recover sites
		// (harness workers, the CLIs) write the ring out as JSONL.
		if c.flight != nil {
			c.flight.Mark(c.now, msg)
		}
		panic(msg)
	}
}

// FinalizeRun stamps the run-relative cycle count into the statistics and
// flushes self-profiling metrics — the bookkeeping Run performs when its
// commit target is reached. Externally clocked cores (cluster members) have
// no Run loop, so their owner calls this when the run ends.
func (c *Core) FinalizeRun() *Stats {
	c.st.Cycles = c.now - c.statsZero
	c.publishMetrics()
	return c.st
}

// Cycle advances the machine by one clock: it ticks the private memory
// hierarchy, then runs the pipeline stages via cycleBody.
//
//simlint:hotpath
func (c *Core) Cycle() {
	c.now++
	c.h.Tick(c.now)
	c.cycleBody()
	if c.cfg.ClockMode == ClockWarp {
		c.maybeWarp()
	}
}

// SyncClock sets the core's clock without running a cycle. The cluster
// calls it on every core BEFORE ticking the shared hierarchy: hierarchy
// events deliver core completions (miss notices, fills) that stamp c.now,
// and in the single-core sequence the clock is advanced before Tick — so an
// externally clocked core must see the new cycle the same way.
func (c *Core) SyncClock(now int64) { c.now = now }

// StepExt advances the core one cycle under an external clock — the
// multi-core cluster's, which owns the shared hierarchy and has already
// ticked it to now (after SyncClock). The stage sequence is exactly Cycle's,
// so a 1-core cluster stepping `now++; core.SyncClock(now); h.Tick(now);
// core.StepExt(now)` is bit-identical to the single-core `Cycle()`. Clock
// warping is the cluster's job (it must consider every core's wake sources),
// so StepExt never warps on its own.
func (c *Core) StepExt(now int64) {
	c.now = now
	c.cycleBody()
}

// cycleBody runs one cycle's pipeline stages and per-cycle accounting at the
// already-advanced clock c.now, with the hierarchy already ticked.
//
//simlint:hotpath
func (c *Core) cycleBody() {
	c.cycleCommits = 0
	c.cycleIssued = 0
	c.cycleRenamed = 0

	// Fire core events due this cycle. The slot is truncated, not nilled, so
	// the backing array is reused; no handler can append to the firing slot
	// (that would need an event exactly eventWindow cycles out, which
	// schedule rejects).
	slot := c.now % eventWindow
	if evs := c.events[slot]; len(evs) > 0 {
		c.events[slot] = evs[:0]
		c.pendingCoreEvents -= len(evs)
		for _, ev := range evs {
			if ev.at != c.now {
				panicWarpedEvent(ev.at, c.now)
			}
			c.fireEvent(ev)
		}
	}

	if c.ra.active && c.ra.pendingExit {
		c.exitRunahead()
	}

	c.commitStage()
	c.issueStage()
	c.renameStage()
	c.fetchStage()

	// Per-cycle accounting.
	if c.ra.active {
		c.st.RunaheadCycles++
		if c.ra.usingBuffer {
			c.st.RunaheadBufferCycles++
			c.st.FEGatedCycles++
		} else {
			c.st.RunaheadTradCycles++
		}
	}
	c.accountCycle()

	// Observability hooks: all stay behind nil checks so the hot path is
	// untouched when tracing and timelines are off. The flight recorder is
	// the exception — it is always on — so its per-cycle cost is exactly one
	// countdown decrement; the Event copy happens once per flightSampleEvery
	// executed cycles. (Warped spans skip sample cycles entirely: the ring is
	// diagnostic, not part of simulated results, so it deliberately does NOT
	// clamp the warp the way an attached tracer does.)
	if c.flight != nil {
		if c.flightIn--; c.flightIn <= 0 {
			c.flightIn = flightSampleEvery
			c.flight.Record(&trace.Event{Cycle: c.now, Kind: trace.Sample, ROBOcc: c.rob.size(), MSHROcc: c.h.OutstandingDataMissesR(c.memReq)})
		}
	}
	if c.tracer != nil && c.now%sampleInterval == 0 {
		c.traceSample()
	}
	if c.tl != nil {
		c.tickTimeline()
	}
	if c.onCycle != nil {
		c.onCycle()
	}
}

// panicWarpedEvent reports an event that fired off its due cycle — a clock
// bug, not a workload property. Split out of Cycle so the message formatting
// keeps its allocations off the hot path.
//
//go:noinline
func panicWarpedEvent(due, now int64) {
	panic(fmt.Sprintf("core: event due at cycle %d fired at cycle %d (clock warped over a due event)", due, now))
}

// panicEventWindow reports an event scheduled past the wheel. Kept out of
// line so schedule, which inlines into hot paths, carries no boxed panic
// value.
//
//go:noinline
func panicEventWindow() { panic("core: event scheduled beyond the event window") }

// WarpStats reports the clock warp's work: how many warps fired and how many
// cycles they skipped. Deliberately not part of Stats (and not serialized):
// both clock modes must produce bit-identical statistics and snapshots.
func (c *Core) WarpStats() (warps, skipped int64) { return c.warps, c.warpedCycles }

// dump renders a short machine state summary for panics and debugging.
func (c *Core) dump() string {
	s := fmt.Sprintf("cycle=%d committed=%d rob=%d rs=%d lq=%d sq=%d fetchPC=%#x runahead=%v buffer=%v\n",
		c.now, c.st.Committed, c.rob.size(), c.rsCount, c.lqCount, c.sqCount, c.fetchPC, c.ra.active, c.ra.usingBuffer)
	n := c.rob.size()
	if n > 8 {
		n = 8
	}
	for i := 0; i < n; i++ {
		d := c.rob.at(i)
		s += fmt.Sprintf("  rob[%d] seq=%d pc=%#x %v renamed=%v issued=%v exec=%v poison=%v dram=%v\n",
			i, d.Seq, d.PC, d.U.Op, d.Renamed, d.Issued, d.Executed, d.Poisoned, d.DRAMBound)
	}
	return s
}

// ResetStats zeroes every statistics counter in the core and its memory
// system while preserving all microarchitectural state (caches, predictor,
// chain cache contents, in-flight work). Harnesses call it after a warmup
// run so measurements exclude cold-start effects. The cycle and committed
// counts reported by a subsequent Run are relative to this point.
func (c *Core) ResetStats() {
	// Flush self-profiling deltas first: Committed is about to reset, and its
	// published prev must reset with it so the next flush's delta is the
	// post-reset count, not a uint64 wraparound.
	c.publishMetrics()
	c.prof.prev.committed = 0
	c.st = newStats()
	c.statsZero = c.now
	c.h.ResetStats()
	c.bp.ResetStats()
	clear(c.missAge)
	c.ccache.HitCount, c.ccache.MissCount = 0, 0
	c.racache.Writes, c.racache.Hits, c.racache.Misses = 0, 0, 0
	c.ra.haveFurthestReach = false
	c.ra.dramReadsAtEntry = 0
	c.ra.committedAtEntry = 0
}

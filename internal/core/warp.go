package core

import (
	"runaheadsim/internal/memsys"
	"runaheadsim/internal/metrics"
)

// Clock warp: fast-forward across provably idle stretches.
//
// The paper's workloads spend most of their cycles with the ROB blocked on a
// DRAM miss. In that regime the per-cycle loop does no useful work: commit
// bumps a stall counter and returns, select re-defers the same entries,
// rename and fetch are blocked, and the memory hierarchy is between events.
// maybeWarp detects that state at the end of a cycle and jumps c.now to one
// cycle before the earliest future cycle at which anything can change, in one
// step, attributing the skipped span to exactly the counters the per-cycle
// loop would have incremented.
//
// The correctness argument has two halves:
//
// Inertness — a skipped cycle must be a no-op in the per-cycle reference.
// Every state change during a stall is event-driven (memory-system events,
// the core event wheel, timer expiries), so it suffices that (a) this cycle's
// stages did nothing a future cycle could extend (no issues, no renames, no
// commit possible, fetch blocked by a stable condition), and (b) the warp
// target never jumps past any event or timer. For select specifically:
// wakeup broadcasts run before issueStage (h.Tick and the event wheel fire
// first), so cycleIssued == 0 means every ready uop was evaluated (or held
// behind an address-less store) and skipped this cycle for a reason frozen
// until the next event — with zero issues the port budget was untouched,
// leaving only disambiguation and source state, which only events change.
// The same holds for the ROB-scan scheduler. cycleRenamed == 0 plus the front-end timers pins rename, and
// fetchInert pins fetch (a blocked fetch that still calls h.Fetch every cycle
// — MSHR-full retry — mutates hierarchy counters and is deliberately NOT
// inert).
//
// Accounting — the per-cycle loop increments stall counters during idle
// cycles (ROBStallCycles, MemStallCycles, ICacheStallCycles, the runahead
// cycle counters, one CPI bucket, timeline accumulators). The skipped span is
// attributed in bulk under the frozen machine state; the warp target is
// clamped to every boundary at which any of those classifications could flip
// (recovery-shadow expiries, tracer sample ticks, timeline intervals), so the
// classification is uniform across the span.
//
// The machinery is split in three so the multi-core cluster can reuse it:
// WarpSources runs the quiescence vetoes and collects this core's own wake
// sources (everything except the memory hierarchy, which the cluster
// shares); WarpClamp lowers a candidate target to this core's accounting
// boundaries; ApplyWarp performs the bulk attribution and moves the clock.
// maybeWarp composes them for the single-core machine; the cluster takes
// the min of every core's sources plus the shared hierarchy's NextEvent,
// clamps through every core, and applies to all.
//
//simlint:hotpath
func (c *Core) maybeWarp() {
	t, ok := c.WarpSources()
	if !ok {
		return
	}
	if ht := c.h.NextEvent(); ht < t {
		t = ht
	}
	if t == memsys.Never {
		c.prof.veto[vetoNoEvent]++
		return
	}
	t = c.WarpClamp(t)
	if t <= c.now+1 {
		c.prof.veto[vetoAdjacent]++
		return // the next cycle has work; nothing to skip
	}
	c.ApplyWarp(t)
}

// WarpSources runs the quiescence vetoes and, when the core is provably
// idle, returns the earliest future cycle at which the core's own state can
// change — excluding the shared memory hierarchy, whose NextEvent the caller
// merges. It returns (memsys.Never, true) for a quiescent core with no
// core-local wake source, and ok == false when this cycle's activity vetoes
// warping.
func (c *Core) WarpSources() (t int64, ok bool) {
	// This cycle moved uops through rename or issue: the next cycle may move
	// more with no event in between (width and port budgets reset). A cycle
	// that committed must not warp either — not because the machine isn't
	// idle afterwards, but because Run's loop exits the moment its commit
	// target is reached, and that exit must land on the same cycle under
	// both clocks (a warp here would overshoot the boundary and inflate the
	// recorded cycle count relative to the per-cycle reference).
	if c.cycleIssued != 0 || c.cycleRenamed != 0 || c.cycleCommits != 0 {
		c.prof.veto[vetoProgress]++
		return 0, false
	}
	// A pending runahead exit flushes the pipeline next cycle.
	if c.ra.pendingExit {
		c.prof.veto[vetoRunaheadExit]++
		return 0, false
	}
	// Commit: inert only when the window is empty or its head has not
	// executed (an executed head retires — or pseudo-retires — next cycle).
	var head *DynInst
	if c.rob.size() > 0 {
		head = c.rob.at(0)
		if head.Executed {
			c.prof.veto[vetoCommitHead]++
			return 0, false
		}
	}
	// Store buffer: a head entry not yet in flight retries h.Store every
	// cycle (and each attempt mutates hierarchy counters).
	if c.sbLen() > 0 && !c.storeBuf[c.sbHead].inflight {
		c.prof.veto[vetoStoreBuffer]++
		return 0, false
	}
	if !c.fetchInert() {
		c.prof.veto[vetoFetch]++
		return 0, false
	}
	// Runahead entry: while a DRAM-bound load blocks the head, commitStage
	// calls tryEnterRunahead every cycle. That call is a pure no-op only in
	// its "already decided for this stall" early return; otherwise the
	// attempt mutates statistics and possibly the machine.
	raRetry := false
	if head != nil && !c.ra.active && c.cfg.Mode != ModeNone &&
		head.U.Op.IsLoad() && head.DRAMBound {
		if c.ra.lastAttempt != head.Seq {
			c.prof.veto[vetoRunaheadEntry]++
			return 0, false // no attempt recorded yet for this stall
		}
		if !c.ra.noRetry {
			if c.ra.retryAt <= c.now {
				c.prof.veto[vetoRunaheadEntry]++
				return 0, false // the retry is due; the next cycle re-attempts
			}
			raRetry = true
		}
	}

	// Wake sources: the earliest future cycle at which the core's own state
	// can change. If none exists here or in the shared hierarchy the machine
	// is dead or drained — tick per cycle and let Run's loop, the watchdog,
	// or Drain's quiescence check decide, at exactly the cycle the reference
	// would.
	t = memsys.Never
	if c.pendingCoreEvents > 0 {
		if at := c.nextCoreEventAt(); at < t {
			t = at
		}
	}
	if raRetry && c.ra.retryAt < t {
		t = c.ra.retryAt
	}
	if c.frontLen() > 0 && c.frontReadyAt[c.frontHead] > c.now && c.frontReadyAt[c.frontHead] < t {
		t = c.frontReadyAt[c.frontHead] // decode completes; rename may resume
	}
	if c.fetchStallUntil > c.now && c.fetchStallUntil < t {
		t = c.fetchStallUntil // redirect penalty expires; fetch resumes
	}
	if c.ra.active && c.ra.usingBuffer && c.ra.bufferReadyAt > c.now && c.ra.bufferReadyAt < t {
		t = c.ra.bufferReadyAt // chain generation completes; buffer feeds
	}
	return t, true
}

// WarpClamp lowers candidate warp target t to this core's accounting
// boundaries: cycles that do not wake the machine but change how skipped
// cycles are classified (or must themselves execute), so the attributed span
// stays uniform.
func (c *Core) WarpClamp(t int64) int64 {
	if c.cfg.WatchdogCycles > 0 {
		if bound := c.lastProgress + c.cfg.WatchdogCycles + 1; bound < t {
			t = bound // Run panics at this cycle; reach it, don't pass it
		}
	}
	if c.raRecoverUntil > c.now && c.raRecoverUntil+1 < t {
		t = c.raRecoverUntil + 1
	}
	if c.branchRecoverUntil > c.now && c.branchRecoverUntil+1 < t {
		t = c.branchRecoverUntil + 1
	}
	if c.tracer != nil {
		if next := (c.now/sampleInterval + 1) * sampleInterval; next < t {
			t = next // occupancy samples must fire at their exact cycles
		}
	}
	if c.tl != nil {
		if next := c.now + (c.tl.tl.Interval - c.tl.cycles); next < t {
			t = next // the sample-emitting cycle must execute
		}
	}
	return t
}

// ApplyWarp jumps the core's clock to one cycle before target t (already
// vetted by WarpSources and clamped by WarpClamp, with t > now+1),
// attributing the skipped span in bulk to exactly the counters the per-cycle
// loop would have incremented under the frozen machine state.
func (c *Core) ApplyWarp(t int64) {
	var head *DynInst
	if c.rob.size() > 0 {
		head = c.rob.at(0)
	}
	skip := t - 1 - c.now
	if metrics.Enabled {
		// Warps are rare next to cycles (each replaces at least two), so the
		// jump-size histogram observes the registry directly instead of going
		// through the publishMetrics delta flush.
		cm.warpSkip.Observe(skip)
	}

	// Bulk attribution: exactly what the per-cycle loop would have counted
	// over cycles (c.now, t), evaluated once under the frozen state.
	if head != nil {
		c.st.ROBStallCycles += skip
		if head.U.Op.IsLoad() && head.DRAMBound {
			c.st.MemStallCycles += skip
		}
	}
	if !c.draining && !(c.ra.active && c.ra.usingBuffer) &&
		(c.icacheWait || c.fetchStallUntil > c.now+1) {
		c.st.ICacheStallCycles += skip
	}
	if c.ra.active {
		c.st.RunaheadCycles += skip
		if c.ra.usingBuffer {
			c.st.RunaheadBufferCycles += skip
			c.st.FEGatedCycles += skip
		} else {
			c.st.RunaheadTradCycles += skip
		}
	}
	c.st.CPIStack[c.warpBucket(head)] += skip
	if c.tl != nil {
		c.tl.robOccSum += int64(c.rob.size()) * skip
		c.tl.mshrOccSum += int64(c.h.OutstandingDataMissesR(c.memReq)) * skip
		if c.ra.active {
			c.tl.raCycles += skip
		}
		c.tl.cycles += skip
	}

	c.now = t - 1
	c.warps++
	c.warpedCycles += skip
}

// fetchInert reports that fetchStage will do nothing (beyond the stall
// accounting the warp replicates) every cycle until the warp target: the
// drain starves it, buffer-mode gates it, a stall timer or I-cache wait
// blocks it, the front queue is full, or fetch ran off valid text. A fetch
// blocked only until c.now+1 is not inert — the very next cycle fetches.
func (c *Core) fetchInert() bool {
	if c.draining || (c.ra.active && c.ra.usingBuffer) {
		return true
	}
	if c.icacheWait || c.fetchStallUntil > c.now+1 {
		return true
	}
	if c.frontLen() >= frontQCap {
		return true
	}
	return c.p.UopAt(c.fetchPC) == nil
}

// warpBucket classifies every skipped cycle into the CPI bucket accountCycle
// would pick: state is frozen across the span, no commits happen, and the
// recovery-shadow clamps guarantee the time-dependent arms are uniform.
func (c *Core) warpBucket(head *DynInst) CPIBucket {
	switch {
	case c.ra.active:
		return CPIRunaheadOverhead
	case head != nil:
		switch {
		case head.U.Op.IsLoad() && head.DRAMBound:
			return CPIDRAM
		case head.U.Op.IsMem() && head.memIssued:
			return CPILLCMiss
		default:
			return CPIOther
		}
	case c.raRecoverUntil > c.now:
		return CPIRunaheadOverhead
	case c.branchRecoverUntil > c.now:
		return CPIBranchRecovery
	default:
		return CPIFrontend
	}
}

package core

import (
	"runaheadsim/internal/bpred"
	"runaheadsim/internal/isa"
)

// raState is the runahead controller state for one interval.
type raState struct {
	active      bool
	usingBuffer bool
	pendingExit bool

	blockingSeq  uint64
	blockingPC   uint64
	entryCycle   int64
	lastAttempt  uint64 // blocking seq of the last entry attempt
	retryAt      int64  // next cycle a failed buffer decision may retry (ROB keeps filling)
	noRetry      bool   // the attempt was suppressed for this stall; don't retry
	checkpointPC uint64
	ghrSnapshot  uint64
	rasSnapshot  bpred.RASSnapshot

	// Runahead buffer.
	chain         *Chain
	bufferPos     int
	bufferReadyAt int64

	// Interval statistics baselines.
	bufferMemLoads    uint64 // buffer-injected loads that reached DRAM this interval
	bufferForwards    uint64 // buffer-injected loads satisfied by store/runahead-cache forwarding
	bufferRealLoads   uint64 // buffer-injected loads that executed with a valid (unpoisoned) address
	dramReadsAtEntry  uint64
	committedAtEntry  uint64
	pseudoRetired     uint64
	furthestReach     uint64 // committed-instruction position reached by the last interval
	haveFurthestReach bool
}

// tryEnterRunahead is called when a DRAM-bound load d blocks the ROB head.
func (c *Core) tryEnterRunahead(d *DynInst) {
	if c.ra.lastAttempt == d.Seq && (c.ra.noRetry || c.now < c.ra.retryAt) {
		return // already decided for this stall
	}
	if c.ra.lastAttempt != d.Seq {
		c.ra.lastAttempt = d.Seq
		c.ra.noRetry = false
	}

	// Runahead enhancements (Section 4.6): suppress intervals that would be
	// too short (the miss was sent to memory long ago) or overlapping (the
	// previous interval already ran past this point).
	if c.cfg.Enhancements {
		if at, ok := c.missAge[d.EA&^63]; ok && c.now-at >= c.cfg.EnhAgeCycles {
			// The request behind this miss went out long ago (usually issued
			// by an earlier runahead interval); the data is nearly here.
			c.st.RunaheadEntrySkipped++
			c.ra.noRetry = true
			return
		}
		if c.ra.haveFurthestReach && c.st.Committed <= c.ra.furthestReach {
			// The previous interval already ran past this point.
			c.st.RunaheadEntrySkipped++
			c.ra.noRetry = true
			return
		}
	}

	useBuffer := false
	var chain *Chain
	genCycles := int64(0)

	switch c.cfg.Mode {
	case ModeTraditional:
		// Nothing to decide.
	case ModeBuffer, ModeBufferCC, ModeHybrid, ModeAdaptive:
		useBuffer, chain, genCycles = c.decideBuffer(d)
		if useBuffer && c.cfg.Mode == ModeAdaptive && c.bufferScore(d.PC) == 0 {
			// Feedback demotion: past buffer intervals for this PC produced
			// no buffer-driven misses (a serial dependence chain), so no
			// runahead flavour can help — skip the interval and save the
			// pipeline flush and replay it would cost.
			c.st.AdaptiveDemotions++
			c.ra.noRetry = true
			return
		}
		if !useBuffer && c.cfg.Mode != ModeHybrid && c.cfg.Mode != ModeAdaptive {
			// The pure runahead buffer systems have no fallback: without a
			// chain the core stays stalled for now. The window keeps filling
			// while the head is blocked, so another dynamic instance of the
			// blocking PC may yet arrive — retry shortly.
			c.st.RunaheadEntriesFailed++
			c.ra.retryAt = c.now + 8
			return
		}
		if c.cfg.Mode == ModeHybrid || c.cfg.Mode == ModeAdaptive {
			if useBuffer {
				c.st.HybridChoseBuffer++
			} else {
				c.st.HybridChoseTrad++
			}
		}
	}

	// Commit to entering: checkpoint architectural state (the committed
	// register values are already mirrored in archVal), branch history and
	// the return address stack (Section 3), and charge the checkpoint energy
	// events (Section 5).
	c.ra.active = true
	c.ra.usingBuffer = useBuffer
	c.ra.pendingExit = false
	// Entering runahead IS forward progress for watchdog purposes: the stall
	// so far was a legal DRAM-bound wait, and pseudo-retirement (which also
	// advances lastProgress) may take a few more cycles to start. Without
	// this, a long legal stall followed by a legal runahead interval could
	// trip a small WatchdogCycles budget mid-interval.
	c.lastProgress = c.now
	c.ra.blockingSeq = d.Seq
	c.ra.blockingPC = d.PC
	c.ra.entryCycle = c.now
	c.ra.checkpointPC = d.PC
	c.ra.ghrSnapshot = c.bp.GHR()
	c.ra.rasSnapshot = c.bp.RAS().Snapshot()
	c.ra.chain = chain
	c.ra.bufferPos = 0
	c.ra.bufferReadyAt = c.now + genCycles
	c.ra.dramReadsAtEntry = c.h.Req(c.memReq).DRAMReadsDemand
	c.ra.committedAtEntry = c.st.Committed
	c.ra.pseudoRetired = 0
	c.ra.bufferMemLoads = 0
	c.ra.bufferForwards = 0
	c.ra.bufferRealLoads = 0
	c.st.RunaheadIntervals++
	c.st.CheckpointRegReads += isa.NumArchRegs
	c.st.CheckpointRegWrites += isa.NumArchRegs
	if c.tracer != nil || c.flight != nil {
		mode, chainLen := "traditional", 0
		if useBuffer {
			mode = "buffer"
			chainLen = chain.Len()
		}
		c.traceRunaheadEnter(d.PC, mode, chainLen)
	}

	if c.dep != nil {
		c.dep.beginInterval(c)
	}

	// Poison every load that is waiting on DRAM — classic runahead marks
	// their results invalid so the window can drain past them.
	for i := 0; i < c.rob.size(); i++ {
		e := c.rob.at(i)
		if e.U.Op.IsLoad() && !e.Executed && e.DRAMBound {
			c.poisonComplete(e)
		}
	}
}

// decideBuffer implements the Figure 8 policy: probe the chain cache, else
// generate a chain from the ROB; report whether the runahead buffer should
// be used, with which chain, and how many cycles the decision costs.
func (c *Core) decideBuffer(d *DynInst) (useBuffer bool, chain *Chain, genCycles int64) {
	// One CAM search over the ROB's PC field to find another dynamic
	// instance of the blocking load (Section 4.2).
	c.st.PCCAMSearches++
	match := c.findOtherInstance(d)
	withCC := c.cfg.Mode == ModeBufferCC || c.cfg.Mode == ModeHybrid || c.cfg.Mode == ModeAdaptive
	if match == nil {
		// Without another instance we predict this PC won't miss again soon:
		// traditional runahead is the better mode (Section 4.5).
		c.st.ChainGenFailures++
		return false, nil, 0
	}
	if withCC {
		if cached, ok := c.ccache.Lookup(d.PC); ok {
			c.st.ChainCacheHits++
			// Figure 13 instrumentation: does the cached chain match what
			// the ROB would generate right now? The comparison is free in
			// hardware terms — undo its energy-event counts.
			dest, sq, reads := c.st.DestCAMSearches, c.st.SQCAMSearches, c.st.ROBChainReads
			fresh, _, _ := c.generateChain(match)
			c.st.DestCAMSearches, c.st.SQCAMSearches, c.st.ROBChainReads = dest, sq, reads
			if fresh != nil {
				c.st.ChainCacheChecked++
				if fresh.Signature == cached.Signature {
					c.st.ChainCacheExact++
				}
			}
			return true, cached, 1
		}
		c.st.ChainCacheMisses++
	}
	fresh, searches, truncated := c.generateChain(match)
	if fresh == nil {
		c.st.ChainGenFailures++
		return false, nil, 0
	}
	c.st.ChainsGenerated++
	if truncated {
		c.st.ChainsTooLong++
		if c.cfg.Mode == ModeHybrid || c.cfg.Mode == ModeAdaptive {
			// A chain that overflowed the cap predicts a divergent
			// instruction stream: use traditional runahead (Figure 8).
			return false, nil, 0
		}
	}
	// Timing: one PC CAM cycle, two destination-register searches per cycle,
	// then reading the chain out of the ROB at the superscalar width.
	genCycles = 1 + (int64(searches)+1)/int64(c.cfg.RegSearchesPerCycle) + (int64(fresh.Len())+3)/4
	c.st.ChainGenCycles += genCycles
	if withCC {
		c.ccache.Insert(*fresh)
	}
	return true, fresh, genCycles
}

// findOtherInstance returns the oldest ROB entry with the blocking PC other
// than the blocking load itself.
func (c *Core) findOtherInstance(d *DynInst) *DynInst {
	for i := 0; i < c.rob.size(); i++ {
		e := c.rob.at(i)
		if e.Seq != d.Seq && e.PC == d.PC {
			return e
		}
	}
	return nil
}

// exitRunahead performs the wholesale restore: flush the pipeline, restore
// the checkpointed register state, branch history and RAS, reset the
// runahead cache, and refetch from the blocking load (which now hits).
func (c *Core) exitRunahead() {
	// Interval statistics.
	// Per-requestor so a cluster core counts only its own interval misses,
	// not its neighbors' (identical to the aggregate on a private hierarchy).
	misses := c.h.Req(c.memReq).DRAMReadsDemand - c.ra.dramReadsAtEntry
	c.st.RunaheadMissesLLC += misses
	c.st.MissesPerInterval.Observe(misses)
	c.st.RunaheadIntervalLens.Observe(uint64(c.now - c.ra.entryCycle))
	if c.dep != nil {
		c.dep.endInterval(c)
	}
	if c.cfg.Mode == ModeAdaptive && c.ra.usingBuffer && c.now-c.ra.entryCycle >= 30 {
		// The serial-barren signature is a buffer loop whose loads never
		// even compute a valid address (the chain poisons itself). Loops
		// that execute real loads — hits, forwards or misses — are healthy
		// regardless of how many new misses this particular interval found.
		switch {
		case c.ra.bufferMemLoads > 0:
			c.updateBufferScore(c.ra.blockingPC, c.ra.bufferMemLoads)
		case c.ra.bufferRealLoads == 0 && c.ra.bufferForwards == 0:
			c.updateBufferScore(c.ra.blockingPC, 0)
		}
	}
	if c.cfg.Enhancements && !c.ra.usingBuffer {
		// The "don't re-enter until execution passes the last interval's
		// reach" rule measures front-end progress; buffer-mode pseudo-retires
		// are chain-loop iterations, not program distance, so only
		// traditional intervals update the reach.
		c.ra.furthestReach = c.ra.committedAtEntry + c.ra.pseudoRetired
		c.ra.haveFurthestReach = true
	}

	// Flush everything speculative, including the scheduler's bitmaps,
	// waiter lists, and store-address index — nothing in them survives the
	// wholesale restore.
	for c.rob.size() > 0 {
		t := c.rob.popTail()
		t.Squashed = true
		c.freeDyn(t)
	}
	c.rob.clear()
	c.sched.clear()
	c.rsCount, c.lqCount, c.sqCount = 0, 0, 0
	c.dropFrontQ()

	// Restore architectural register state into the identity mapping.
	c.ren.reset(c.cfg.NumPhysRegs)
	for i := 0; i < isa.NumArchRegs; i++ {
		c.prf.val[i] = c.archVal[i]
		c.prf.ready[i] = true
		c.prf.poison[i] = false
		c.prf.prod[i] = 0
	}
	for i := isa.NumArchRegs; i < c.cfg.NumPhysRegs; i++ {
		c.prf.ready[i] = false
		c.prf.poison[i] = false
	}
	c.racache.Reset()
	c.bp.SetGHR(c.ra.ghrSnapshot)
	c.bp.RAS().Restore(c.ra.rasSnapshot)
	c.redirectFetch(c.ra.checkpointPC, 1)

	c.ra.active = false
	c.ra.usingBuffer = false
	c.ra.pendingExit = false
	c.ra.chain = nil
	c.lastProgress = c.now
	// Empty-window cycles inside this shadow are the interval's exit cost
	// (CPI-stack runahead-overhead bucket): flush, refetch, refill.
	c.raRecoverUntil = c.now + 1 + int64(c.cfg.DecodeDepth)
	c.traceRunaheadExit(misses)
}

// bufferScore reads the adaptive policy's 2-bit confidence for a blocking
// PC (starts at weakly-productive).
func (c *Core) bufferScore(pc uint64) uint8 {
	if c.pcScore == nil {
		return 1
	}
	if v, ok := c.pcScore[pc]; ok {
		return v
	}
	return 1
}

// updateBufferScore trains the adaptive policy at interval exit: intervals
// that uncovered misses strengthen the PC, barren ones weaken it.
func (c *Core) updateBufferScore(pc uint64, misses uint64) {
	if c.pcScore == nil {
		c.pcScore = make(map[uint64]uint8)
	}
	if len(c.pcScore) > 4096 {
		clear(c.pcScore)
	}
	v := c.bufferScore(pc)
	if misses >= 1 {
		// Productive intervals rebuild confidence quickly; one good interval
		// outweighs one barren one.
		v += 2
		if v > 3 {
			v = 3
		}
	} else if v > 0 {
		v--
	}
	c.pcScore[pc] = v
}

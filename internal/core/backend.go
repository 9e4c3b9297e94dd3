package core

import (
	"runaheadsim/internal/isa"
	"runaheadsim/internal/memsys"
	"runaheadsim/internal/prog"
)

// renameStage renames and dispatches up to RenameWidth uops per cycle, from
// the front-end queue normally, or from the runahead buffer in buffer mode
// (pre-decoded chain uops injected at the rename stage, Section 4.3).
func (c *Core) renameStage() {
	if c.ra.active && c.ra.usingBuffer {
		c.feedFromBuffer()
		return
	}
	for n := 0; n < c.cfg.RenameWidth; n++ {
		if c.frontLen() == 0 || c.frontReadyAt[c.frontHead] > c.now {
			return
		}
		d := c.frontQ[c.frontHead]
		if !c.canDispatch(d.U) {
			return
		}
		c.frontPop()
		c.dispatch(d)
	}
}

// feedFromBuffer injects the dependence chain as a loop (Section 4.3):
// renamed at up to the superscalar width, front end gated.
func (c *Core) feedFromBuffer() {
	if c.now < c.ra.bufferReadyAt || c.ra.chain == nil || len(c.ra.chain.Uops) == 0 {
		return
	}
	for n := 0; n < c.cfg.RenameWidth; n++ {
		cu := &c.ra.chain.Uops[c.ra.bufferPos]
		if !c.canDispatch(&cu.U) {
			return
		}
		c.seq++
		d := c.newDyn()
		d.Seq = c.seq
		d.PC = cu.PC
		d.Index = cu.Index
		d.U = &cu.U
		d.PDst, d.PSrc1, d.PSrc2, d.POld = noPhys, noPhys, noPhys, noPhys
		d.FetchCycle = c.now
		d.Runahead = true
		d.FromBuffer = true
		c.ra.bufferPos = (c.ra.bufferPos + 1) % len(c.ra.chain.Uops)
		c.st.BufferUopsIssued++
		c.dispatch(d)
	}
}

// canDispatch checks structural resources for one uop.
func (c *Core) canDispatch(u *isa.Uop) bool {
	if c.rob.full() || c.rsCount >= c.cfg.RSSize {
		return false
	}
	if u.Op.IsLoad() && c.lqCount >= c.cfg.LQSize {
		return false
	}
	if u.Op.IsStore() && c.sqCount >= c.cfg.SQSize {
		return false
	}
	if u.Dst != isa.RegNone && !c.ren.haveFree() {
		return false
	}
	return true
}

// dispatch renames d and inserts it into the ROB and reservation station.
func (c *Core) dispatch(d *DynInst) {
	u := d.U
	if u.Src1 != isa.RegNone {
		d.PSrc1 = c.ren.rat[u.Src1]
	}
	if u.Src2 != isa.RegNone {
		d.PSrc2 = c.ren.rat[u.Src2]
	}
	if u.Dst != isa.RegNone {
		d.POld = c.ren.rat[u.Dst]
		d.PDst = c.ren.alloc()
		c.ren.rat[u.Dst] = d.PDst
		c.prf.ready[d.PDst] = false
		c.prf.poison[d.PDst] = false
		c.prf.prod[d.PDst] = d.Seq
	}
	c.rob.push(d)
	c.traceDispatch(d)
	c.cycleRenamed++
	d.Renamed = true
	c.enroll(d)
	c.rsCount++
	if u.Op.IsLoad() {
		c.lqCount++
	}
	if u.Op.IsStore() {
		c.sqCount++
	}
	c.st.Renamed++
	if d.Runahead {
		c.st.RunaheadUops++
	}
}

// issueStage selects up to IssueWidth ready uops, oldest first, bounded by
// data-cache ports for memory operations. The event-driven scheduler
// (sched.go) is the default; the ROB scan is preserved as the reference the
// lockstep equivalence tests compare against.
func (c *Core) issueStage() {
	if c.cfg.Scheduler == SchedScan {
		c.issueStageScan()
		return
	}
	c.issueStageEvent()
}

// issue performs the selection bookkeeping shared by both schedulers.
func (c *Core) issue(d *DynInst) {
	d.Issued = true
	d.IssueCycle = c.now
	c.rsCount--
	c.st.Issued++
	c.cycleIssued++
	// PRF read energy: one read per register source actually named. Uops
	// with zero or one source (immediates, moves, branches on one register)
	// previously over-counted at a flat two reads per issue.
	if d.PSrc1 != noPhys {
		c.st.PRFReads++
	}
	if d.PSrc2 != noPhys {
		c.st.PRFReads++
	}
	c.traceIssue(d)
	c.startExec(d)
}

// issueStageScan is the reference O(ROB) selection loop.
func (c *Core) issueStageScan() {
	issued, memIssued := 0, 0
	for i := 0; i < c.rob.size() && issued < c.cfg.IssueWidth; i++ {
		d := c.rob.at(i)
		if d.Issued || !d.Renamed || d.Executed {
			continue
		}
		if !c.srcReady(d.PSrc1) || !c.srcReady(d.PSrc2) {
			continue
		}
		if d.U.Op.IsMem() {
			if memIssued >= c.cfg.MemPorts {
				continue
			}
			if d.U.Op.IsLoad() && !c.loadCanIssueScan(i, d) {
				continue
			}
		}
		c.issue(d)
		issued++
		if d.U.Op.IsMem() {
			memIssued++
		}
	}
}

// loadCanIssueScan enforces conservative memory disambiguation on the
// correct path: a load waits until every older store in the window has a
// computed address, and until an overlapping older store has its data ready
// (so it can forward). During runahead all results are speculative and
// discarded, so loads ignore unknown-address stores entirely (classic
// runahead semantics — the runahead cache catches the forwarding that
// matters); stalling them behind slow store-data chains would strangle the
// prefetching the mode exists for. This is the reference walk; the event
// scheduler's loadCanIssueEvent (sched.go) must agree with it exactly.
func (c *Core) loadCanIssueScan(idx int, d *DynInst) bool {
	if c.ra.active {
		return true
	}
	ea, eaKnown := d.predictedEA(c)
	if !eaKnown {
		// The load's own address is unknowable (poisoned sources): wait
		// rather than disambiguate against a fabricated address, which could
		// falsely overlap (or falsely clear) a real store. Unreachable on
		// the correct path today — poison exists only inside runahead, where
		// disambiguation is skipped — so waiting costs nothing and fails
		// loudly (watchdog) if that ever changes.
		return false
	}
	for j := idx - 1; j >= 0; j-- {
		s := c.rob.at(j)
		if !s.U.Op.IsStore() {
			continue
		}
		if s.Poisoned {
			continue // unknown address in runahead; classic runahead ignores it
		}
		if !s.EAValid {
			return false
		}
		if overlaps(s.EA, ea) {
			if !s.Executed {
				return false
			}
		}
	}
	return true
}

// predictedEA computes the load's address from ready sources. ok is false
// when a source is poisoned: the address is unknowable and callers must
// treat the load conservatively instead of comparing a dummy value.
func (d *DynInst) predictedEA(c *Core) (ea uint64, ok bool) {
	if c.srcPoisoned(d.PSrc1) || (d.U.Scaled && c.srcPoisoned(d.PSrc2)) {
		return 0, false
	}
	return prog.EffAddr(d.U, c.srcVal(d.PSrc1), c.srcVal(d.PSrc2)), true
}

func overlaps(a, b uint64) bool {
	d := a - b
	return d < 8 || -d < 8
}

// startExec begins execution of an issued uop.
func (c *Core) startExec(d *DynInst) {
	u := d.U
	// Poison propagation (runahead): any poisoned source poisons the result
	// without real execution. Stores with poisoned data still record the
	// poison in the runahead cache via execStore.
	poisoned := c.srcPoisoned(d.PSrc1) || c.srcPoisoned(d.PSrc2)
	if poisoned && !u.Op.IsStore() {
		c.poisonComplete(d)
		return
	}
	switch {
	case u.Op.IsLoad():
		c.st.ExecMem++
		c.schedule(c.now+1, evExecLoad, d)
	case u.Op.IsStore():
		c.st.ExecMem++
		c.schedule(c.now+1, evExecStore, d)
	case u.Op.IsBranch():
		c.st.ExecBranch++
		c.schedule(c.now+int64(u.Op.ExecLatency()), evExecBranch, d)
	default:
		switch u.Op.FU() {
		case isa.FUMul:
			c.st.ExecMul++
		case isa.FUDiv:
			c.st.ExecDiv++
		case isa.FUFP, isa.FUFDiv:
			c.st.ExecFP++
		default:
			c.st.ExecALU++
		}
		// Value and producer tags are computed when the event fires
		// (fireEvent): issued sources are stable, so the result is identical
		// and no closure is allocated.
		c.schedule(c.now+int64(u.Op.ExecLatency()), evALUComplete, d)
	}
}

// execStore computes the store's address and data one cycle after issue.
// Runahead stores write the runahead cache (Section 4.3); normal stores wait
// for commit to become visible.
func (c *Core) execStore(d *DynInst) {
	if d.Squashed || d.Executed {
		return
	}
	// The address is computed or poisoned below: either way the store stops
	// holding younger loads.
	c.sched.unknown.unset(d.ROBPos)
	addrPoisoned := c.srcPoisoned(d.PSrc1)
	dataPoisoned := c.srcPoisoned(d.PSrc2)
	if !addrPoisoned {
		d.EA = prog.EffAddr(d.U, c.srcVal(d.PSrc1), 0)
		d.EAValid = true
		d.StoreData = c.srcVal(d.PSrc2)
		c.noteStoreAddr(d)
	}
	d.Prod1, d.Prod2 = c.srcProd(d.PSrc1), c.srcProd(d.PSrc2)
	if c.ra.active {
		if addrPoisoned {
			c.poisonComplete(d)
			return
		}
		c.racache.Write(d.EA, d.StoreData, dataPoisoned)
		d.Poisoned = dataPoisoned
		c.complete(d)
		return
	}
	c.complete(d)
}

// execLoad runs one cycle after issue (AGU): disambiguate against older
// stores, forward, consult the runahead cache in runahead mode, then access
// the memory hierarchy.
//
//simlint:hotpath
func (c *Core) execLoad(d *DynInst) {
	if d.Squashed || d.Executed {
		return
	}
	if c.srcPoisoned(d.PSrc1) || (d.U.Scaled && c.srcPoisoned(d.PSrc2)) {
		c.poisonComplete(d)
		return
	}
	d.EA = prog.EffAddr(d.U, c.srcVal(d.PSrc1), c.srcVal(d.PSrc2))
	d.EAValid = true
	d.Prod1, d.Prod2 = c.srcProd(d.PSrc1), c.srcProd(d.PSrc2)
	if d.FromBuffer && c.ra.active {
		c.ra.bufferRealLoads++
	}

	// Store-queue forwarding: youngest older store with an overlapping
	// address — via the address index under the event scheduler, via the
	// reference window walk under the scan scheduler.
	var fwd *DynInst
	if c.cfg.Scheduler == SchedScan {
		for i := c.robIndexOf(d) - 1; i >= 0; i-- {
			s := c.rob.at(i)
			if !s.U.Op.IsStore() || !s.EAValid {
				continue
			}
			if overlaps(s.EA, d.EA) {
				fwd = s
				break
			}
		}
	} else {
		fwd = c.forwardingStore(d)
	}
	if fwd != nil {
		if !fwd.Executed {
			// Defensive replay: unreachable while stores compute address and
			// data in the same cycle, correct if those ever split.
			c.st.LoadRetries++
			c.schedule(c.now+1, evExecLoad, d)
			return
		}
		c.st.StoreForward++
		if d.FromBuffer && c.ra.active {
			c.ra.bufferForwards++
		}
		d.ProdStore = fwd.Seq
		if fwd.Poisoned {
			c.poisonComplete(d)
			return
		}
		d.Value = fwd.StoreData
		d.MemLevel = memsys.LevelL1
		c.schedule(c.now+2, evComplete, d)
		return
	}

	// Runahead cache forwarding (runahead stores are invisible to memory).
	if c.ra.active {
		if v, pois, hit := c.racache.Read(d.EA); hit {
			if d.FromBuffer {
				c.ra.bufferForwards++
			}
			if pois {
				c.poisonComplete(d)
				return
			}
			d.Value = v
			d.MemLevel = memsys.LevelL1
			c.schedule(c.now+2, evComplete, d)
			return
		}
	}

	// Memory access. The load reads the committed image once the hierarchy
	// has taken it: all older overlapping stores have been handled, so the
	// image holds the right data, and a refused attempt reads nothing.
	if d.memIssued {
		return
	}
	switch {
	case c.h.LoadHitR(c.memReq, d.EA):
		// Fast path: an L1D hit completes through the core's own typed event
		// at the L1 latency. (A hit can never be runahead's DRAM-bound
		// blocking load, so loadDone's exit check has no analogue here.)
		d.Value = c.mem.Read64(d.EA)
		d.MemLevel = memsys.LevelL1
		c.schedule(c.now+int64(c.cfg.Mem.L1Latency), evComplete, d)
	case c.h.LoadR(c.memReq, c.now, memsys.Token{Addr: d.EA, Seq: d.Seq, Gen: d.gen, Slot: d.slot, NoWait: c.ra.active}):
		// A miss travels as a token naming d's slot and generation, so its
		// completion is recognized as stale if d leaves the machine first
		// (pseudo-retire frees the runahead blocking load while its DRAM
		// fill is still outstanding); see loadMiss and loadDone.
		d.memValue = c.mem.Read64(d.EA)
	default:
		// The L1D MSHR file is full: retry next cycle.
		c.st.LoadRetries++
		c.schedule(c.now+1, evExecLoad, d)
		return
	}
	d.memIssued = true
	if d.Runahead {
		c.st.RunaheadLoads++
	}
}

// memSink is the core seen as its requestor's completion sink (memsys.Sink).
// A named conversion of Core rather than methods on it keeps Miss and Done
// out of Core's API; the conversion allocates nothing.
type memSink Core

// Miss reports that load t is DRAM-bound.
func (s *memSink) Miss(t memsys.Token, _ int64) { (*Core)(s).loadMiss(t) }

// Done dispatches a completion on its token kind.
func (s *memSink) Done(t memsys.Token, o memsys.Outcome) {
	c := (*Core)(s)
	switch t.Kind {
	case memsys.TokStore:
		c.sbPop() // the store buffer drains in order, one write in flight
	case memsys.TokFetch:
		c.fetchDone(o)
	default:
		c.loadDone(t, o)
	}
}

// loadMiss handles a load's DRAM-bound notice. The token can outlive the
// load: gen gates every change to the slot, while the token's own Addr and
// Seq keep the machine-level effects — miss age here, runahead exit in
// loadDone — correct whatever became of the slot.
func (c *Core) loadMiss(t memsys.Token) {
	line := t.Addr &^ 63
	if _, seen := c.missAge[line]; !seen {
		if len(c.missAge) > 8192 {
			clear(c.missAge)
		}
		c.missAge[line] = c.now
	}
	d := c.slots[t.Slot]
	if d.gen != t.Gen {
		return
	}
	d.DRAMBound = true
	// Classic runahead invalidates every load that misses to DRAM while in
	// runahead mode, so the window can drain past it. Loads issued no-wait
	// poison through their own completion.
	if c.ra.active && !t.NoWait && !d.Executed && !d.Squashed && t.Seq != c.ra.blockingSeq {
		d.MemLevel = memsys.LevelMem
		c.poisonComplete(d)
	}
}

// loadDone completes a load that missed in the L1D.
func (c *Core) loadDone(t memsys.Token, o memsys.Outcome) {
	if c.ra.active && t.Seq == c.ra.blockingSeq {
		// The data that blocked the ROB is back: leave runahead.
		c.ra.pendingExit = true
	}
	d := c.slots[t.Slot]
	if d.gen != t.Gen || d.Squashed || d.Executed {
		return
	}
	d.MemLevel = o.Level
	if t.NoWait && o.Level == memsys.LevelMem {
		if d.FromBuffer && c.ra.active {
			c.ra.bufferMemLoads++
		}
		// Runahead: no data — mark invalid and move on.
		c.poisonComplete(d)
		return
	}
	d.Value = d.memValue
	c.complete(d)
}

// poisonComplete finishes a uop whose result is invalid (runahead poison).
func (c *Core) poisonComplete(d *DynInst) {
	if d.Squashed || d.Executed {
		return
	}
	d.Poisoned = true
	c.st.PoisonedUops++
	c.complete(d)
}

// complete retires execution of d: writes the register file, resolves
// branches, and records instrumentation.
func (c *Core) complete(d *DynInst) {
	if d.Squashed || d.Executed {
		return
	}
	if !d.Issued {
		// Completed without issuing (poisoned at runahead entry); free its
		// reservation-station slot and its ready bit.
		d.Issued = true
		c.rsCount--
		c.sched.ready.unset(d.ROBPos)
	}
	d.Executed = true
	d.DoneCycle = c.now
	c.traceComplete(d)
	if d.PDst != noPhys {
		c.prf.val[d.PDst] = d.Value
		c.prf.ready[d.PDst] = true
		c.prf.poison[d.PDst] = d.Poisoned
		c.prf.prod[d.PDst] = d.Seq
		c.st.PRFWrites++
		c.broadcast(d.PDst)
	}
	if d.IsBranch && !d.Poisoned {
		c.resolveBranch(d)
	}
	if c.dep != nil {
		c.dep.record(c, d)
	}
	if d.Runahead && d.U.Op.IsLoad() && d.MemLevel == memsys.LevelMem && c.dep != nil {
		c.dep.onRunaheadMiss(c, d)
	}
}

// execBranch resolves a branch at the end of its execution latency.
func (c *Core) execBranch(d *DynInst) {
	if d.Squashed || d.Executed {
		return
	}
	if c.srcPoisoned(d.PSrc1) || c.srcPoisoned(d.PSrc2) {
		// Poisoned sources: trust the prediction, never recover (Section 3).
		c.poisonComplete(d)
		return
	}
	s1, s2 := c.srcVal(d.PSrc1), c.srcVal(d.PSrc2)
	d.Prod1, d.Prod2 = c.srcProd(d.PSrc1), c.srcProd(d.PSrc2)
	d.Taken = prog.BranchTaken(d.U, s1, s2)
	if d.U.Op == isa.CALL && d.U.HasDst() {
		d.Value = int64(d.PC + isa.UopBytes)
	}
	switch {
	case d.U.Op == isa.RET:
		d.Target = uint64(s1)
	case d.Taken:
		d.Target = c.p.TakenTarget(d.U)
	default:
		d.Target = d.PC + isa.UopBytes
	}
	c.complete(d)
}

// resolveBranch trains the predictor and recovers from mispredictions.
func (c *Core) resolveBranch(d *DynInst) {
	c.st.Branches++
	if d.U.Op.IsConditional() {
		c.bp.Resolve(d.PC, d.Pred, d.Taken)
	}
	if d.Taken && d.U.Op != isa.RET {
		c.bp.UpdateBTB(d.PC, d.Target)
	}
	actualNext := d.Target
	if !d.Taken {
		actualNext = d.PC + isa.UopBytes
	}
	predNext := d.PredTarget
	if !d.PredTaken {
		predNext = d.PC + isa.UopBytes
	}
	d.Mispred = actualNext != predNext
	if !d.Mispred {
		return
	}
	c.st.Mispredicts++
	if d.U.Op.IsConditional() {
		c.bp.RepairHistory(d.Pred.GHRBefore, d.Taken)
	}
	c.squashAfter(d)
	c.redirectFetch(actualNext, int64(c.cfg.RedirectPenalty))
	// Empty-window cycles inside this shadow are the misprediction's cost
	// (CPI-stack branch-recovery bucket): the redirect bubble plus the
	// fetch-to-rename refill.
	c.branchRecoverUntil = c.now + int64(c.cfg.RedirectPenalty+c.cfg.DecodeDepth)
}

// robIndexOf returns d's distance from the ROB head.
func (c *Core) robIndexOf(d *DynInst) int {
	idx := d.ROBPos - c.rob.head
	if idx < 0 {
		idx += len(c.rob.entries)
	}
	return idx
}

// squashAfter removes every instruction younger than d from the machine,
// unwinding the RAT through the saved previous mappings.
func (c *Core) squashAfter(d *DynInst) {
	for c.rob.size() > 0 {
		t := c.rob.at(c.rob.size() - 1)
		if t == d {
			break
		}
		c.rob.popTail()
		c.squash(t)
	}
}

func (c *Core) squash(t *DynInst) {
	t.Squashed = true
	c.st.SquashedUops++
	c.traceSquash(t)
	c.sched.leave(t.ROBPos)
	if t.U.Op.IsStore() {
		c.dropStore(t)
	}
	if t.U.Op.IsLoad() && t.memIssued {
		// The request outlives the squash; it may prefetch a line the
		// correct path wants.
		c.st.WrongPathLoads++
	}
	if t.PDst != noPhys {
		c.ren.rat[t.U.Dst] = t.POld
		c.ren.release(t.PDst)
	}
	if t.Renamed && !t.Issued && !t.Executed {
		c.rsCount--
	}
	if t.U.Op.IsLoad() {
		c.lqCount--
	}
	if t.U.Op.IsStore() {
		c.sqCount--
	}
	// The ROB slot was the last owning reference; outstanding events, memory
	// tokens, and waiter-list entries all hold gen captures and go dead now.
	c.freeDyn(t)
}

package core

import (
	"runaheadsim/internal/isa"
	"runaheadsim/internal/memsys"
)

// frontQCap bounds the fetch/decode queue.
const frontQCap = 32

// fetchStage fetches up to FetchWidth uops per cycle down the predicted
// path, at most one taken branch per cycle, stalling on I-cache misses. In
// runahead-buffer mode the front end is clock-gated and does nothing.
func (c *Core) fetchStage() {
	if c.draining {
		return // Drain starves the front end so the window empties
	}
	if c.ra.active && c.ra.usingBuffer {
		return
	}
	if c.icacheWait || c.now < c.fetchStallUntil {
		c.st.ICacheStallCycles++
		return
	}
	fetched := 0
	for fetched < c.cfg.FetchWidth && c.frontLen() < frontQCap {
		u := c.p.UopAt(c.fetchPC)
		if u == nil {
			// Wrong-path fetch ran off valid text; wait for a redirect.
			break
		}
		line := c.fetchPC &^ uint64(c.cfg.Mem.L1I.LineBytes-1)
		if line != c.lastFetchLine {
			if c.h.L1IR(c.memReq).Probe(line) {
				c.h.L1IR(c.memReq).Lookup(line) // count the hit, refresh LRU
				c.lastFetchLine = line
			} else {
				// The fill is matched against fetchWaitLine (and the
				// icacheWait gate) by fetchDone, so the token carries nothing
				// but the line.
				c.icacheWait = true
				c.fetchWaitLine = line
				if !c.h.FetchR(c.memReq, c.now, memsys.Token{Addr: line}) {
					c.icacheWait = false // MSHR full; retry next cycle
				}
				break
			}
		}

		c.seq++
		d := c.newDyn()
		d.Seq = c.seq
		d.PC = c.fetchPC
		d.Index = c.p.IndexOf(c.fetchPC)
		d.U = u
		d.PDst, d.PSrc1, d.PSrc2, d.POld = noPhys, noPhys, noPhys, noPhys
		d.FetchCycle = c.now
		d.Runahead = c.ra.active
		nextPC := c.fetchPC + isa.UopBytes
		if u.Op.IsBranch() {
			d.IsBranch = true
			c.predictBranch(d)
			if d.PredTaken {
				nextPC = d.PredTarget
			}
		}
		c.traceFetch(d)
		c.frontQ = append(c.frontQ, d)
		c.frontReadyAt = append(c.frontReadyAt, c.now+int64(c.cfg.DecodeDepth))
		c.st.Fetched++
		c.st.Decoded++
		fetched++
		c.fetchPC = nextPC
		if d.PredTaken {
			break // one taken branch per fetch cycle
		}
	}
	if fetched > 0 {
		c.st.FetchActiveCycles++
		c.st.DecodeActiveCycles++
	}
}

// predictBranch fills the prediction fields of a branch at fetch.
func (c *Core) predictBranch(d *DynInst) {
	u := d.U
	fallThrough := d.PC + isa.UopBytes
	switch u.Op {
	case isa.JMP, isa.CALL:
		c.bp.NoteUnconditional()
		d.PredTaken = true
		if tgt, ok := c.bp.LookupBTB(d.PC); ok {
			d.PredTarget = tgt
		} else {
			// Unknown target on first encounter: fetch falls through and the
			// branch redirects at execute.
			d.PredTaken = false
			d.PredTarget = fallThrough
		}
		if u.Op == isa.CALL {
			c.bp.RAS().Push(fallThrough)
		}
	case isa.RET:
		c.bp.NoteUnconditional()
		d.PredTaken = true
		d.PredTarget = c.bp.RAS().Pop()
		if d.PredTarget == 0 {
			d.PredTaken = false
			d.PredTarget = fallThrough
		}
	default: // conditional
		d.Pred = c.bp.PredictDirection(d.PC)
		d.PredTaken = d.Pred.Taken
		d.PredTarget = fallThrough
		if d.PredTaken {
			if tgt, ok := c.bp.LookupBTB(d.PC); ok {
				d.PredTarget = tgt
			} else {
				d.PredTaken = false
			}
		}
	}
}

// redirectFetch restarts fetch at target after a misprediction or runahead
// exit, discarding everything in the front-end queue.
func (c *Core) redirectFetch(target uint64, penalty int64) {
	c.fetchPC = target
	c.fetchStallUntil = c.now + penalty
	c.fetchGen++
	c.icacheWait = false
	c.lastFetchLine = ^uint64(0)
	c.dropFrontQ()
}

// frontLen returns the number of uops in the fetch/decode queue.
func (c *Core) frontLen() int { return len(c.frontQ) - c.frontHead }

// frontPop removes the queue head. The queue is a moving-head slice, like
// memsys' reqRing: popping `q = q[1:]` would both keep every renamed uop
// reachable through the backing array's dead prefix and force append to
// reallocate once per window of throughput. The popped slot is nil-ed and the
// live window (at most frontQCap entries) is copied down before the head can
// run away, so steady state allocates nothing.
func (c *Core) frontPop() {
	c.frontQ[c.frontHead] = nil
	c.frontHead++
	switch {
	case c.frontHead == len(c.frontQ):
		c.frontQ = c.frontQ[:0]
		c.frontReadyAt = c.frontReadyAt[:0]
		c.frontHead = 0
	case c.frontHead >= 2*frontQCap:
		n := copy(c.frontQ, c.frontQ[c.frontHead:])
		for i := n; i < len(c.frontQ); i++ {
			c.frontQ[i] = nil
		}
		c.frontQ = c.frontQ[:n]
		copy(c.frontReadyAt, c.frontReadyAt[c.frontHead:])
		c.frontReadyAt = c.frontReadyAt[:n]
		c.frontHead = 0
	}
}

// dropFrontQ discards the front-end queue, recycling uops that were never
// dispatched (their only reference is the queue itself).
func (c *Core) dropFrontQ() {
	for i := c.frontHead; i < len(c.frontQ); i++ {
		c.freeDyn(c.frontQ[i])
		c.frontQ[i] = nil
	}
	c.frontQ = c.frontQ[:0]
	c.frontReadyAt = c.frontReadyAt[:0]
	c.frontHead = 0
}

// fetchDone completes an I-fetch. A stale fill (for a fetch the front end
// was redirected away from) either finds icacheWait already clear or names a
// different line; only the live wait matches both. A redirect straight back
// to the same still-missing line merges into the same MSHR, so the stale and
// live completions arrive on the same cycle and the early clear is
// indistinguishable from the live one.
func (c *Core) fetchDone(o memsys.Outcome) {
	if c.icacheWait && o.Line == c.fetchWaitLine {
		c.icacheWait = false
		c.lastFetchLine = o.Line
	}
}

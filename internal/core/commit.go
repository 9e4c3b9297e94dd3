package core

import "runaheadsim/internal/memsys"

// commitStage retires up to CommitWidth executed uops in order, drains the
// store buffer, and triggers runahead entry when a DRAM-bound load blocks
// the ROB head.
func (c *Core) commitStage() {
	c.drainStoreBuffer()
	committed := 0
	for committed < c.cfg.CommitWidth && !c.rob.empty() {
		d := c.rob.at(0)
		if !d.Executed {
			c.st.ROBStallCycles++
			if d.U.Op.IsLoad() && d.DRAMBound {
				c.st.MemStallCycles++
				// Runahead begins "once a miss has propagated to the top of
				// the reorder buffer" (Section 4.2) — retirement is stalled
				// and every cycle from here on is otherwise wasted.
				if !c.ra.active && c.cfg.Mode != ModeNone {
					c.tryEnterRunahead(d)
				}
			}
			return
		}
		if c.ra.active {
			// Pseudo-retirement: runahead results never touch architectural
			// state; the slot is recycled and the previous mapping of the
			// destination freed so runahead can keep renaming indefinitely
			// (Section 3). The wholesale reset at exit discards everything.
			c.rob.popHead()
			c.recycle(d)
			c.traceCommit(d, true)
			if d.POld != noPhys {
				c.ren.release(d.POld)
			}
			c.ra.pseudoRetired++
			c.lastProgress = c.now
			committed++
			c.freeDyn(d)
			continue
		}
		if d.U.Op.IsStore() {
			if c.sbLen() >= c.cfg.StoreBufSize {
				c.st.StoreBufFullStall++
				return
			}
			c.mem.Write64(d.EA, d.StoreData)
			c.storeBuf = append(c.storeBuf, sbEntry{addr: d.EA})
		}
		if d.PDst != noPhys {
			c.archVal[d.U.Dst] = d.Value
		}
		c.rob.popHead()
		c.recycle(d)
		c.traceCommit(d, false)
		if d.POld != noPhys {
			c.ren.release(d.POld)
		}
		c.st.Committed++
		c.cycleCommits++
		c.lastProgress = c.now
		committed++
		if c.onCommit != nil {
			c.onCommit(d)
		}
		c.freeDyn(d)
	}
}

// recycle returns d's queue occupancy and scheduler index entries. During
// runahead, physical registers are not individually reclaimed — the
// wholesale reset at exit rebuilds the free list.
func (c *Core) recycle(d *DynInst) {
	if d.U.Op.IsLoad() {
		c.lqCount--
	}
	if d.U.Op.IsStore() {
		c.sqCount--
		c.dropStore(d)
	}
}

// drainStoreBuffer writes the oldest committed store into the data cache.
func (c *Core) drainStoreBuffer() {
	if c.sbLen() == 0 || c.storeBuf[c.sbHead].inflight {
		return
	}
	e := &c.storeBuf[c.sbHead]
	if c.h.StoreR(c.memReq, c.now, memsys.Token{Addr: e.addr}) {
		e.inflight = true
	}
}

// sbLen returns the store-buffer occupancy. Like frontQ, the buffer is a
// moving-head slice: popping `buf = buf[1:]` would shrink the backing
// array's usable capacity and force one reallocation per buffer length of
// committed stores, which profiles as the top allocation site on
// store-heavy workloads.
func (c *Core) sbLen() int { return len(c.storeBuf) - c.sbHead }

// sbPop removes the drained head entry (sbEntry holds no pointers, so the
// dead slot needs no clearing).
func (c *Core) sbPop() {
	c.sbHead++
	switch {
	case c.sbHead == len(c.storeBuf):
		c.storeBuf = c.storeBuf[:0]
		c.sbHead = 0
	case c.sbHead >= 2*c.cfg.StoreBufSize:
		n := copy(c.storeBuf, c.storeBuf[c.sbHead:])
		c.storeBuf = c.storeBuf[:n]
		c.sbHead = 0
	}
}

package core

import (
	"fmt"

	"runaheadsim/internal/isa"
)

// This file is the core half of the simcheck sanitizer: hook registration
// plus the structural invariants of the out-of-order engine. The checks are
// split by cost — CheckInvariants(false) is O(ROB) and safe to run every
// cycle; CheckInvariants(true) adds the full physical-register partition and
// cache-array scans, which the sanitizer runs on a coarser interval and at
// the end of a run.

// SetCommitHook registers fn to run after every correct-path retirement,
// with the retired instruction (runahead pseudo-retires do not fire it).
// The simcheck lockstep oracle attaches here. Passing nil detaches.
func (c *Core) SetCommitHook(fn func(*DynInst)) { c.onCommit = fn }

// SetCycleHook registers fn to run at the end of every Cycle, after all
// stages and accounting. The simcheck invariant sweep attaches here.
// Passing nil detaches.
func (c *Core) SetCycleHook(fn func()) { c.onCycle = fn }

// DebugDump renders a short machine-state summary (cycle, occupancies, the
// oldest ROB entries) for sanitizer reports and debugging.
func (c *Core) DebugDump() string { return c.dump() }

// CheckInvariants verifies the core's structural invariants and those of its
// memory hierarchy, returning the first violation. With deep false only the
// per-cycle-cheap checks run: ROB seq order, queue-occupancy conservation,
// free-list count conservation, and MSHR conservation. deep adds the exact
// physical-register partition, runahead-cache LRU integrity, cache LRU
// integrity, and inclusive-LLC containment.
func (c *Core) CheckInvariants(deep bool) error {
	if err := c.checkFast(); err != nil {
		return err
	}
	if deep {
		if err := c.checkDeep(); err != nil {
			return err
		}
	}
	return c.h.CheckInvariants(deep)
}

// checkFast holds the O(ROB) per-cycle checks.
func (c *Core) checkFast() error {
	// ROB seq order: program-order allocation means strictly increasing
	// sequence numbers from head to tail.
	var loads, stores, unissued, polds int
	for i := 0; i < c.rob.size(); i++ {
		d := c.rob.at(i)
		if d == nil {
			return fmt.Errorf("rob[%d] is nil with count %d", i, c.rob.size())
		}
		if i > 0 && d.Seq <= c.rob.at(i-1).Seq {
			return fmt.Errorf("rob seq order broken: rob[%d] seq %d after rob[%d] seq %d",
				i, d.Seq, i-1, c.rob.at(i-1).Seq)
		}
		if d.U.Op.IsLoad() {
			loads++
		}
		if d.U.Op.IsStore() {
			stores++
		}
		if d.Renamed && !d.Issued {
			unissued++
		}
		if d.POld != noPhys {
			polds++
		}
	}
	if loads != c.lqCount {
		return fmt.Errorf("load-queue count %d, but %d loads in the ROB", c.lqCount, loads)
	}
	if stores != c.sqCount {
		return fmt.Errorf("store-queue count %d, but %d stores in the ROB", c.sqCount, stores)
	}
	if unissued != c.rsCount {
		return fmt.Errorf("reservation-station count %d, but %d renamed-unissued uops in the ROB", c.rsCount, unissued)
	}
	// Free-list conservation: every physical register is in the free list,
	// named by the RAT, or held as some in-flight instruction's previous
	// mapping. The counts must add up every cycle (checkDeep verifies the
	// partition is exact, not just numerically balanced).
	if got := len(c.ren.free) + isa.NumArchRegs + polds; got != c.cfg.NumPhysRegs {
		return fmt.Errorf("free-list conservation broken: %d free + %d mapped + %d held as POld = %d, want %d phys regs",
			len(c.ren.free), isa.NumArchRegs, polds, got, c.cfg.NumPhysRegs)
	}
	if c.sbLen() > c.cfg.StoreBufSize {
		return fmt.Errorf("store buffer holds %d entries, capacity %d", c.sbLen(), c.cfg.StoreBufSize)
	}
	return nil
}

// checkDeep holds the full-scan checks.
func (c *Core) checkDeep() error {
	if err := c.checkPhysRegPartition(); err != nil {
		return err
	}
	if err := c.checkSched(); err != nil {
		return err
	}
	return c.racache.checkIntegrity()
}

// checkSched verifies the event scheduler's bookkeeping against the ROB, the
// ground truth both schedulers select from. The load-bearing direction is
// liveness — a ready uop missing from the ready queue would stall forever
// under the event scheduler while the scan would have found it — plus exact
// correspondence of the store-address index (a leaked dead store would block
// or mis-forward loads).
func (c *Core) checkSched() error {
	s := &c.sched
	if c.cfg.Scheduler == SchedScan {
		// The scan consults none of these; enroll/broadcast keep them empty.
		if len(s.readyQ) != 0 || len(s.unknownStores) != 0 || len(s.storeIdx) != 0 {
			return fmt.Errorf("scan scheduler selected but wakeup structures are populated (readyQ %d, unknownStores %d, storeIdx %d)",
				len(s.readyQ), len(s.unknownStores), len(s.storeIdx))
		}
		return nil
	}
	if len(s.deferred) != 0 || len(s.dozing) != 0 {
		return fmt.Errorf("scheduler scratch lists hold %d deferred and %d dozing entries between cycles", len(s.deferred), len(s.dozing))
	}
	inReady := make(map[*DynInst]bool, len(s.readyQ)+len(s.parked)+len(s.sleep))
	for _, r := range s.readyQ {
		if r.stale() {
			continue // recycled slot or dead uop; dropped lazily at pop
		}
		if r.d.pendingSrcs != 0 {
			return fmt.Errorf("seq %d is in the ready queue with %d pending sources", r.seq, r.d.pendingSrcs)
		}
		inReady[r.d] = true
	}
	// Parked entries are ready uops too — popped earlier, blocked on a port
	// or disambiguation, awaiting the merge. The list must stay seq-sorted
	// or the merge would emit out of oldest-first order.
	for i, r := range s.parked {
		if i > 0 && s.parked[i-1].seq >= r.seq {
			return fmt.Errorf("parked list out of order at %d: seq %d after %d", i, r.seq, s.parked[i-1].seq)
		}
		if r.stale() {
			continue
		}
		if r.d.pendingSrcs != 0 {
			return fmt.Errorf("seq %d is parked with %d pending sources", r.seq, r.d.pendingSrcs)
		}
		inReady[r.d] = true
	}
	// Sleepers are ready loads set aside until an older unknown-address
	// store resolves; they count as queued, and wakeSleepers' prefix scan
	// needs them seq-sorted.
	for i, r := range s.sleep {
		if i > 0 && s.sleep[i-1].seq >= r.seq {
			return fmt.Errorf("sleep list out of order at %d: seq %d after %d", i, r.seq, s.sleep[i-1].seq)
		}
		if r.stale() {
			continue
		}
		if !r.d.U.Op.IsLoad() || r.d.pendingSrcs != 0 {
			return fmt.Errorf("seq %d (%v) sleeps with %d pending sources; only ready loads sleep", r.seq, r.d.U.Op, r.d.pendingSrcs)
		}
		inReady[r.d] = true
	}
	inUnknown := make(map[*DynInst]bool, len(s.unknownStores))
	for _, r := range s.unknownStores {
		if r.d.gen == r.gen {
			inUnknown[r.d] = true
		}
	}
	idxStores := 0
	//simlint:allow determinism -- order-insensitive validation scan
	for b, bucket := range s.storeIdx {
		for _, st := range bucket {
			idxStores++
			if st.Squashed {
				return fmt.Errorf("store index bucket %#x holds squashed seq %d", b, st.Seq)
			}
			if !st.EAValid || st.EA>>3 != b {
				return fmt.Errorf("store index bucket %#x holds seq %d with EA %#x (valid %v)", b, st.Seq, st.EA, st.EAValid)
			}
		}
	}
	robStores := 0
	// blocker is the oldest in-window store with no address — what every
	// sleeper waits on. Runahead loads ignore unknown addresses, so there
	// nothing blocks and the sleep list must hold no live load.
	blocker := ^uint64(0)
	for i := 0; i < c.rob.size(); i++ {
		d := c.rob.at(i)
		if d.Squashed {
			continue
		}
		if !c.ra.active && d.U.Op.IsStore() && !d.EAValid && !d.Poisoned && d.Seq < blocker {
			blocker = d.Seq
		}
		if d.Renamed && !d.Issued && !d.Executed && c.srcReady(d.PSrc1) && c.srcReady(d.PSrc2) && !inReady[d] {
			return fmt.Errorf("lost wakeup: seq %d (%v) has ready sources but is not in the ready queue", d.Seq, d.U.Op)
		}
		if d.U.Op.IsStore() {
			if d.EAValid {
				robStores++
			} else if !d.Poisoned && !inUnknown[d] {
				return fmt.Errorf("store seq %d has no address yet but is missing from the unknown-store heap", d.Seq)
			}
		}
	}
	if robStores != idxStores {
		return fmt.Errorf("store index holds %d entries, but the ROB holds %d addressed stores", idxStores, robStores)
	}
	for _, r := range s.sleep {
		if !r.stale() && r.seq <= blocker {
			return fmt.Errorf("seq %d sleeps, but the oldest store with an unknown address (%d; -1 if none) is not older", r.seq, int64(blocker))
		}
	}
	for p := range s.waiters {
		for _, w := range s.waiters[p] {
			if w.stale() {
				continue
			}
			if c.srcReady(PhysReg(p)) {
				return fmt.Errorf("seq %d still waits on phys reg %d, which is ready", w.seq, p)
			}
			if w.d.pendingSrcs <= 0 {
				return fmt.Errorf("seq %d waits on phys reg %d with pending count %d", w.seq, p, w.d.pendingSrcs)
			}
		}
	}
	return nil
}

// checkPhysRegPartition verifies that {RAT mappings} ∪ {free list} ∪
// {in-flight POld} is an exact partition of the physical register file: every
// register in exactly one place. Double-frees, double-mappings, and leaks all
// surface here with the offending register named.
func (c *Core) checkPhysRegPartition() error {
	owner := make([]string, c.cfg.NumPhysRegs)
	claim := func(p PhysReg, who string) error {
		if int(p) < 0 || int(p) >= c.cfg.NumPhysRegs {
			return fmt.Errorf("phys reg %d out of range (%s)", p, who)
		}
		if prev := owner[p]; prev != "" {
			return fmt.Errorf("phys reg %d claimed by both %s and %s", p, prev, who)
		}
		owner[p] = who
		return nil
	}
	for a, p := range c.ren.rat {
		if err := claim(p, fmt.Sprintf("rat[r%d]", a)); err != nil {
			return err
		}
	}
	for _, p := range c.ren.free {
		if err := claim(p, "the free list"); err != nil {
			return err
		}
	}
	for i := 0; i < c.rob.size(); i++ {
		d := c.rob.at(i)
		if d.POld == noPhys {
			continue
		}
		if err := claim(d.POld, fmt.Sprintf("POld of seq %d", d.Seq)); err != nil {
			return err
		}
	}
	for p, who := range owner {
		if who == "" {
			return fmt.Errorf("phys reg %d leaked: not free, not mapped, not held as POld", p)
		}
	}
	return nil
}

// checkIntegrity verifies the runahead cache's LRU stacks the same way
// cache.CheckIntegrity does for the main arrays.
func (c *raCache) checkIntegrity() error {
	for si, set := range c.sets {
		for i := range set {
			if !set[i].valid {
				continue
			}
			if set[i].lastUse > c.stamp {
				return fmt.Errorf("runahead cache: set %d way %d stamp %d exceeds global stamp %d",
					si, i, set[i].lastUse, c.stamp)
			}
			for j := i + 1; j < len(set); j++ {
				if !set[j].valid {
					continue
				}
				if set[i].tag == set[j].tag {
					return fmt.Errorf("runahead cache: set %d holds tag %#x in ways %d and %d", si, set[i].tag, i, j)
				}
				if set[i].lastUse == set[j].lastUse {
					return fmt.Errorf("runahead cache: set %d ways %d and %d share LRU stamp %d", si, i, j, set[i].lastUse)
				}
			}
		}
	}
	return nil
}

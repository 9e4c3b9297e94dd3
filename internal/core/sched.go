package core

import "math/bits"

// Event-driven wakeup/select scheduler. The seed kernel re-scanned the whole
// ROB every cycle looking for ready uops (O(ROB) per cycle) and walked every
// older store per load issue attempt (O(ROB²) per cycle in the worst case) —
// exactly the wrong shape for a machine whose point is keeping a 192-entry
// window full of in-flight misses. This file replaces both scans with state
// indexed by ROB slot:
//
//   - Wakeup: each physical register keeps a waiter list. A uop dispatched
//     with unready sources registers once per unready source and carries a
//     pending-source count; the completion broadcast that sets the register's
//     ready (or poison) bit walks the list, decrements each waiter, and sets
//     the ready bit of uops whose count hits zero. Uops whose sources are all
//     ready at dispatch set it immediately.
//
//   - Select: three bitmaps over ROB slots — ready (renamed, unissued uops
//     with every source ready), unknown (in-window stores with no address
//     yet) and loads. Issue walks the set ready bits from the ROB head, which
//     is the scan's oldest-first order, a 64-slot word at a time. Outside
//     runahead the first unknown bit from the head is the store every younger
//     load waits for, so loads past it are masked out of the walk: they would
//     fail the same check every cycle until an event computes that store's
//     address, never something the select loop itself does. A uop blocked on
//     a port or on disambiguation keeps its bit and is reconsidered next
//     cycle, the scan's "skip and retry".
//
//   - Store-address index: in-window stores with computed addresses are
//     indexed by 8-byte address bucket. loadCanIssueEvent consults at most
//     three buckets instead of walking the window; the same index serves
//     store-to-load forwarding in execLoad.
//
// Every bit is cleared when its condition ends: at issue, at a store's
// execution, at a load's commit, at squash, and by the wholesale runahead
// flush. Only the per-register waiter lists are invalidated lazily (a waiter
// whose uop was squashed, issued or executed, or whose pooled slot was
// recycled, is skipped at broadcast). At quiescence (Drain) the window is
// empty and so is every bitmap, so snapshots need no scheduler state: a
// restored core rebuilds it empty, which is exactly its canonical drained
// form.
//
// Config.Scheduler selects between this scheduler (SchedEvent, the default)
// and the preserved reference scan (SchedScan). The two must pick identical
// uop sequences cycle-by-cycle; TestSchedulerLockstep and FuzzEquivalence
// enforce it on synthetic programs, TestReferenceKernelsRealWorkloads on the
// real kernels, and perfbench (perfbench/README.md) measures host speed.

// schedRef is a waiter-list reference to a uop. DynInst slots are pooled
// (Core.newDyn), so a waiter that is dropped lazily can outlive the uop it
// was created for; gen is the slot's pool generation at capture, and a
// mismatch marks the reference dead.
type schedRef struct {
	d   *DynInst
	gen uint64
}

// stale reports that the waiter is dead: the slot was recycled, or the uop
// left the machine or already went through issue.
func (r schedRef) stale() bool {
	return r.d.gen != r.gen || r.d.Squashed || r.d.Issued || r.d.Executed
}

// slotSet is a bitmap over ROB slots.
type slotSet []uint64

func newSlotSet(n int) slotSet   { return make(slotSet, (n+63)/64) }
func (s slotSet) set(p int)      { s[p>>6] |= 1 << (p & 63) }
func (s slotSet) unset(p int)    { s[p>>6] &^= 1 << (p & 63) }
func (s slotSet) has(p int) bool { return s[p>>6]&(1<<(p&63)) != 0 }

// count returns the number of set slots.
//
//simlint:hotpath
func (s slotSet) count() int {
	n := 0
	for _, w := range s {
		n += bits.OnesCount64(w)
	}
	return n
}

// next returns the first ring position in [x, end) set in s and, from
// position from on, clear in mask; end if there is none. Positions are the
// unwrapped ring of n slots (position x names slot x mod n, x < 2n), so the
// walk from the ROB head to its tail is one increasing range.
//
//simlint:hotpath
func (s slotSet) next(mask slotSet, x, from, end, n int) int {
	for x < end {
		p := x
		if p >= n {
			p -= n
		}
		w, off := p>>6, p&63
		word := s[w]
		lim := min(64-off, n-p, end-x) // slots left in this word, ring lap and range
		if x < from {
			lim = min(lim, from-x)
		} else {
			word &^= mask[w]
		}
		if t := bits.TrailingZeros64(word >> off); t < lim {
			return x + t
		}
		x += lim
	}
	return end
}

// issueSched is the scheduler state embedded in Core.
type issueSched struct {
	ready   slotSet      // renamed, unissued uops whose sources are all ready
	unknown slotSet      // in-window stores whose address is not computed yet
	loads   slotSet      // in-window loads
	waiters [][]schedRef // per physical register: uops waiting on its broadcast
	// waiterPool holds the backing arrays of emptied waiter lists. A list
	// hands its array back when it empties and takes one when it gains a
	// waiter, so every array circulates among the registers and the pool
	// soon holds arrays as long as any list gets: per-register arrays would
	// each grow separately, and the last of them only after millions of
	// cycles.
	waiterPool [][]schedRef

	storeIdx   map[uint64][]*DynInst // in-window EAValid stores by EA>>3 bucket
	bucketPool [][]*DynInst          // recycled bucket backing arrays (see dropStore)
}

// minWaiters is the capacity of a fresh waiter array, sized so that most
// lists never outgrow it.
const minWaiters = 16

func newIssueSched(numPhys, robSize int) issueSched {
	return issueSched{
		ready:    newSlotSet(robSize),
		unknown:  newSlotSet(robSize),
		loads:    newSlotSet(robSize),
		waiters:  make([][]schedRef, numPhys),
		storeIdx: make(map[uint64][]*DynInst),
	}
}

// clear drops every entry — the wholesale runahead-exit flush and the
// drained-core normalization. The waiter arrays go back to the pool, so
// they stay warm.
func (s *issueSched) clear() {
	clear(s.ready)
	clear(s.unknown)
	clear(s.loads)
	for i, ws := range s.waiters {
		if ws != nil {
			s.waiterPool = append(s.waiterPool, ws[:0])
			s.waiters[i] = nil
		}
	}
	//simlint:allow determinism -- pool refill order never affects simulated state
	for _, bucket := range s.storeIdx {
		for i := range bucket {
			bucket[i] = nil
		}
		s.bucketPool = append(s.bucketPool, bucket[:0])
	}
	clear(s.storeIdx)
}

// leave clears ROB slot p in every bitmap (squash).
func (s *issueSched) leave(p int) {
	s.ready.unset(p)
	s.unknown.unset(p)
	s.loads.unset(p)
}

// enroll registers a freshly dispatched uop: mark its slot as a load or an
// address-less store, and count its unready sources onto the per-register
// waiter lists, or mark it ready immediately. A source counts as ready when
// free, ready, or poisoned (poison propagates at execute, so it satisfies
// wakeup just like a value). Under SchedScan the scan finds ready uops itself
// and the wakeup structures stay empty.
//
//simlint:hotpath
func (c *Core) enroll(d *DynInst) {
	if c.cfg.Scheduler == SchedScan {
		return
	}
	s := &c.sched
	switch {
	case d.U.Op.IsLoad():
		s.loads.set(d.ROBPos)
	case d.U.Op.IsStore():
		s.unknown.set(d.ROBPos)
	}
	r := schedRef{d: d, gen: d.gen}
	pending := int8(0)
	if !c.srcReady(d.PSrc1) {
		pending++
		s.wait(d.PSrc1, r)
	}
	if !c.srcReady(d.PSrc2) {
		pending++
		s.wait(d.PSrc2, r)
	}
	d.pendingSrcs = pending
	if pending == 0 {
		s.ready.set(d.ROBPos)
	}
}

// wait appends r to register p's waiter list, taking a pooled array when
// the list is empty.
//
//simlint:hotpath
func (s *issueSched) wait(p PhysReg, r schedRef) {
	ws := s.waiters[p]
	if ws == nil {
		if n := len(s.waiterPool); n > 0 {
			ws = s.waiterPool[n-1]
			s.waiterPool[n-1] = nil
			s.waiterPool = s.waiterPool[:n-1]
		} else {
			ws = newWaiters()
		}
	}
	s.waiters[p] = append(ws, r)
}

// newWaiters is wait's pool miss, kept out of line so the hot path carries
// no allocation; a warm core does not reach it.
//
//go:noinline
func newWaiters() []schedRef { return make([]schedRef, 0, minWaiters) }

// broadcast wakes the waiters of physical register p after its ready (or
// poison) bit is set. Each waiter appears once per formerly-unready source,
// so decrementing per list entry is exact even when both sources name p.
//
//simlint:hotpath
func (c *Core) broadcast(p PhysReg) {
	if c.cfg.Scheduler == SchedScan || p == noPhys {
		return
	}
	ws := c.sched.waiters[p]
	if len(ws) == 0 {
		return
	}
	c.prof.schedBroadcasts++
	c.prof.schedWakeups += uint64(len(ws))
	for _, w := range ws {
		if w.stale() {
			continue
		}
		if w.d.pendingSrcs--; w.d.pendingSrcs == 0 {
			c.sched.ready.set(w.d.ROBPos)
		}
	}
	c.sched.waiters[p] = nil
	c.sched.waiterPool = append(c.sched.waiterPool, ws[:0])
}

// noteStoreAddr adds a store to the address index once its effective
// address is computed. Index maintenance runs under both schedulers:
// execLoad's forwarding lookup uses it whenever the event scheduler is
// selected, including during runahead.
func (c *Core) noteStoreAddr(d *DynInst) {
	if c.cfg.Scheduler == SchedScan {
		return
	}
	b := d.EA >> 3
	bucket, ok := c.sched.storeIdx[b]
	if !ok {
		// Fresh bucket: reuse a recycled backing array. Buckets are deleted
		// when their last store leaves (dropStore), so without the pool a
		// streaming workload allocates one slice per store lifetime.
		if n := len(c.sched.bucketPool); n > 0 {
			bucket = c.sched.bucketPool[n-1]
			c.sched.bucketPool[n-1] = nil
			c.sched.bucketPool = c.sched.bucketPool[:n-1]
		}
	}
	c.sched.storeIdx[b] = append(bucket, d)
}

// dropStore removes a store from the address index when it leaves the window
// (commit, pseudo-retire, or squash). Buckets hold the handful of in-window
// stores that share an 8-byte granule, so the scan is short.
func (c *Core) dropStore(d *DynInst) {
	if c.cfg.Scheduler == SchedScan || !d.EAValid {
		return
	}
	b := d.EA >> 3
	bucket := c.sched.storeIdx[b]
	for i, s := range bucket {
		if s == d {
			bucket[i] = bucket[len(bucket)-1]
			bucket[len(bucket)-1] = nil
			bucket = bucket[:len(bucket)-1]
			break
		}
	}
	if len(bucket) == 0 {
		delete(c.sched.storeIdx, b)
		if cap(bucket) > 0 {
			c.sched.bucketPool = append(c.sched.bucketPool, bucket)
		}
	} else {
		c.sched.storeIdx[b] = bucket
	}
}

// overlapBuckets yields the at most three address buckets a load at ea can
// overlap ([ea-7, ea+7] spans at most three 8-byte granules). Wrapping
// arithmetic matches overlaps(), which also compares with wraparound.
func overlapBuckets(ea uint64) [3]uint64 {
	return [3]uint64{(ea - 7) >> 3, ea >> 3, (ea + 7) >> 3}
}

// forwardingStore returns the youngest older EAValid store overlapping the
// load — the indexed equivalent of execLoad's backward window walk.
func (c *Core) forwardingStore(d *DynInst) *DynInst {
	var best *DynInst
	bs := overlapBuckets(d.EA)
	for i, b := range bs {
		if (i > 0 && b == bs[0]) || (i > 1 && b == bs[1]) {
			continue
		}
		for _, s := range c.sched.storeIdx[b] {
			if s.Seq < d.Seq && overlaps(s.EA, d.EA) && (best == nil || s.Seq > best.Seq) {
				best = s
			}
		}
	}
	return best
}

// issueStageEvent selects up to IssueWidth ready uops, oldest first, bounded
// by data-cache ports — the event-driven replacement for the ROB scan. It
// walks the ready bitmap from the ROB head to the tail, holding back the
// loads past the oldest address-less store outside runahead. The live word
// is re-read after every issue, so a uop woken within the loop (poison
// propagation), always younger than its producer, is reached exactly where
// the forward scan reaches it. A candidate blocked on a port or on
// disambiguation keeps its bit for the next cycle.
//
//simlint:hotpath
func (c *Core) issueStageEvent() {
	s := &c.sched
	c.prof.schedSelects++
	c.prof.schedQueueSum += uint64(s.ready.count())
	n, head := len(c.rob.entries), c.rob.head
	end := head + c.rob.count
	// Loads from hold on wait for an older store's address. Runahead loads
	// ignore unknown addresses, so nothing is held there.
	hold := end
	if !c.ra.active {
		hold = s.unknown.next(nil, head, end, end, n)
	}
	issued, memIssued := 0, 0
	for x := head; issued < c.cfg.IssueWidth; x++ {
		if x = s.ready.next(s.loads, x, hold, end, n); x == end {
			break
		}
		p := x
		if p >= n {
			p -= n
		}
		d := c.rob.entries[p]
		if d.U.Op.IsMem() {
			if memIssued >= c.cfg.MemPorts || (d.U.Op.IsLoad() && !c.loadCanIssueEvent(d)) {
				continue
			}
			memIssued++
		}
		s.ready.unset(p)
		c.issue(d)
		issued++
	}
}

// loadCanIssueEvent is the indexed form of the loadCanIssue walk for a load
// the select loop did not hold, so every older store has an address (or the
// core is in runahead): consult at most three address buckets instead of
// every older store in the window. The result has the scan reference's
// semantics exactly, including the conservative unknown-EA wait.
func (c *Core) loadCanIssueEvent(d *DynInst) bool {
	if c.ra.active {
		return true
	}
	ea, known := d.predictedEA(c)
	if !known {
		// The load's own address is unknowable (poisoned sources): wait
		// rather than disambiguate against a fabricated address.
		return false
	}
	bs := overlapBuckets(ea)
	for i, b := range bs {
		if (i > 0 && b == bs[0]) || (i > 1 && b == bs[1]) {
			continue
		}
		for _, s := range c.sched.storeIdx[b] {
			if s.Seq < d.Seq && !s.Poisoned && overlaps(s.EA, ea) && !s.Executed {
				return false
			}
		}
	}
	return true
}

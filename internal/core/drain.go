package core

import (
	"fmt"

	"runaheadsim/internal/isa"
	"runaheadsim/internal/prog"
)

// drainBound caps how many cycles Drain will run waiting for quiescence.
// Every in-flight operation bounds out in far fewer cycles (the deepest is a
// DRAM-bound fill behind a full memory queue); hitting the bound means a
// simulator bug, not a workload property.
const drainBound = 10_000_000

// Quiesced reports whether the machine holds no in-flight state: empty
// window, empty front end, no scheduled events, no runahead interval, and a
// fully drained memory hierarchy. Only a quiesced core can be snapshotted —
// in-flight work has no wire representation.
func (c *Core) Quiesced() bool {
	return c.QuiescedCore() && c.h.Drained()
}

// QuiescedCore is Quiesced restricted to core-local state: it ignores the
// memory hierarchy, which in a cluster is shared and checked once globally
// rather than once per core.
func (c *Core) QuiescedCore() bool {
	if c.rob.size() != 0 || c.frontLen() != 0 || c.rsCount != 0 || c.lqCount != 0 || c.sqCount != 0 {
		return false
	}
	if c.sbLen() != 0 || c.ra.active || c.icacheWait || len(c.held) != 0 {
		return false
	}
	for i := range c.events {
		if len(c.events[i]) > 0 {
			return false
		}
	}
	return true
}

// SetDraining starves (or releases) the fetch stage, the same gate Drain
// holds while running a core to quiescence. The multi-core cluster drives
// the clock itself, so it drains by setting the flag on every core and
// stepping the cluster until quiescence.
func (c *Core) SetDraining(on bool) { c.draining = on }

// Drain runs the machine to quiescence: fetch is starved, the window retires
// everything in flight, and the memory hierarchy completes all outstanding
// fills and writebacks. It then normalizes the rename and physical-register
// state to the canonical post-flush form (the identity mapping exitRunahead
// restores), so a core that continues in place and a core rebuilt from the
// snapshot are bit-for-bit identical. fetchPC is left at the next
// correct-path uop — at quiescence every branch has resolved, so the
// predicted PC is the architectural one.
func (c *Core) Drain() error {
	c.draining = true
	defer func() { c.draining = false }()
	start := c.now
	for !c.Quiesced() {
		c.Cycle()
		if c.now-start > drainBound {
			return fmt.Errorf("core: drain did not quiesce within %d cycles (%s)", drainBound, c.dump())
		}
	}
	c.normalizeDrained()
	return nil
}

// normalizeDrained puts rename/PRF bookkeeping into the canonical empty-window
// form. With nothing in flight, the only live register state is the committed
// architectural values; everything else is dead and is zeroed so equal
// machine states serialize to equal bytes.
func (c *Core) normalizeDrained() {
	c.ren.reset(c.cfg.NumPhysRegs)
	for i := 0; i < isa.NumArchRegs; i++ {
		c.prf.val[i] = c.archVal[i]
		c.prf.ready[i] = true
		c.prf.poison[i] = false
	}
	for i := isa.NumArchRegs; i < c.cfg.NumPhysRegs; i++ {
		c.prf.val[i] = 0
		c.prf.ready[i] = false
		c.prf.poison[i] = false
	}
	if c.dep != nil {
		clear(c.dep.regProd)
	}
	c.racache.Reset()
	c.lastFetchLine = ^uint64(0)
	// Scheduler wakeup/select state holds at most stale (squashed or
	// executed) entries at quiescence; its canonical drained form is empty,
	// which is also what a restored core starts with — so snapshots carry no
	// scheduler state at all.
	c.sched.clear()
}

// FetchPC returns the address fetch will resume from — after Drain, the next
// correct-path uop.
func (c *Core) FetchPC() uint64 { return c.fetchPC }

// NewFromArch builds a cold core (empty caches, untrained predictor, cycle
// zero) whose architectural state — memory image, registers, program position
// — comes from a functional checkpoint. The sampled-simulation engine uses it
// to start a detailed interval at an arbitrary point of the program; the
// interval's detailed warmup then re-warms the microarchitectural state.
// The core writes st.Mem itself; a caller that keeps the checkpoint, or
// shares it between goroutines, passes a Clone of st.Mem, which copies only
// the page table.
func NewFromArch(cfg Config, p *prog.Program, st prog.ArchState) *Core {
	c := newCore(cfg, p, st.Mem, nil, 0)
	c.archVal = st.Regs
	for i := 0; i < isa.NumArchRegs; i++ {
		c.prf.val[i] = st.Regs[i]
	}
	c.fetchPC = p.AddrOf(st.Index)
	return c
}

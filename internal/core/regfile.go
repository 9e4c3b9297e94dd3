package core

import (
	"fmt"

	"runaheadsim/internal/isa"
)

// regFile is the physical register file with per-register value, ready bit
// and poison bit (the runahead addition shown shaded in Figure 6). The
// dependence-walk instrumentation keeps its producer tags in depTracker.
type regFile struct {
	val    []int64
	ready  []bool
	poison []bool
}

func newRegFile(n int) *regFile {
	return &regFile{
		val:    make([]int64, n),
		ready:  make([]bool, n),
		poison: make([]bool, n),
	}
}

// renamer holds the register alias table and free list.
type renamer struct {
	rat  [isa.NumArchRegs]PhysReg
	free []PhysReg
}

func newRenamer(numPhys int) *renamer {
	r := &renamer{}
	for i := range r.rat {
		r.rat[i] = PhysReg(i)
	}
	r.free = make([]PhysReg, 0, numPhys)
	for p := numPhys - 1; p >= isa.NumArchRegs; p-- {
		r.free = append(r.free, PhysReg(p))
	}
	return r
}

func (r *renamer) haveFree() bool { return len(r.free) > 0 }

func (r *renamer) alloc() PhysReg {
	if len(r.free) == 0 {
		panic("core: rename with empty free list")
	}
	p := r.free[len(r.free)-1]
	r.free = r.free[:len(r.free)-1]
	return p
}

func (r *renamer) release(p PhysReg) { r.free = append(r.free, p) }

// reset restores the identity mapping (arch register i in physical register
// i) and refills the free list — the wholesale restore used on runahead exit.
func (r *renamer) reset(numPhys int) {
	for i := range r.rat {
		r.rat[i] = PhysReg(i)
	}
	r.free = r.free[:0]
	for p := numPhys - 1; p >= isa.NumArchRegs; p-- {
		r.free = append(r.free, PhysReg(p))
	}
}

// checkInvariant verifies that no physical register is both free and mapped,
// and that mapped+free+inflight counts add up. Used by tests.
func (r *renamer) checkInvariant(rob *robFile, numPhys int) error {
	seen := make(map[PhysReg]string, numPhys)
	for a, p := range r.rat {
		if prev, dup := seen[p]; dup {
			return fmt.Errorf("phys %d mapped twice (%s and rat[r%d])", p, prev, a)
		}
		seen[p] = fmt.Sprintf("rat[r%d]", a)
	}
	for _, p := range r.free {
		if prev, dup := seen[p]; dup {
			return fmt.Errorf("phys %d both free and %s", p, prev)
		}
		seen[p] = "free"
	}
	for i := 0; i < rob.count; i++ {
		d := rob.at(i)
		for _, p := range []PhysReg{d.POld} {
			if p == noPhys {
				continue
			}
			if prev, dup := seen[p]; dup && prev == "free" {
				return fmt.Errorf("phys %d (POld of seq %d) also on free list", p, d.Seq)
			}
		}
	}
	return nil
}

// robFile is the reorder buffer: a ring of in-flight instructions.
type robFile struct {
	entries []*DynInst
	head    int
	count   int
}

func newROB(n int) *robFile { return &robFile{entries: make([]*DynInst, n)} }

func (r *robFile) full() bool  { return r.count == len(r.entries) }
func (r *robFile) empty() bool { return r.count == 0 }
func (r *robFile) size() int   { return r.count }

// at returns the i-th oldest instruction (0 = head).
func (r *robFile) at(i int) *DynInst {
	return r.entries[(r.head+i)%len(r.entries)]
}

func (r *robFile) push(d *DynInst) {
	if r.full() {
		panic("core: ROB overflow")
	}
	pos := (r.head + r.count) % len(r.entries)
	d.ROBPos = pos
	r.entries[pos] = d
	r.count++
}

func (r *robFile) popHead() *DynInst {
	if r.empty() {
		panic("core: ROB underflow")
	}
	d := r.entries[r.head]
	r.entries[r.head] = nil
	r.head = (r.head + 1) % len(r.entries)
	r.count--
	return d
}

// popTail removes and returns the youngest instruction (squash path).
func (r *robFile) popTail() *DynInst {
	if r.empty() {
		panic("core: ROB underflow")
	}
	pos := (r.head + r.count - 1) % len(r.entries)
	d := r.entries[pos]
	r.entries[pos] = nil
	r.count--
	return d
}

func (r *robFile) clear() {
	for i := range r.entries {
		r.entries[i] = nil
	}
	r.head, r.count = 0, 0
}

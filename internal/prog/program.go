package prog

import (
	"fmt"

	"runaheadsim/internal/isa"
)

// Program is a laid-out workload: a flat sequence of uops grouped into basic
// blocks, plus the initial data image. Uop i lives at address
// isa.TextBase + i*isa.UopBytes.
type Program struct {
	Name string

	// Uops is the flattened text segment in layout order.
	Uops []isa.Uop
	// BlockStart[b] is the index into Uops of the first uop of block b.
	BlockStart []int
	// BlockOf[i] is the block containing uop i.
	BlockOf []isa.BlockID

	// Init is the initial memory image, frozen when Build returns: it owns
	// no pages, so NewMemory may copy it from any goroutine. Never write it;
	// use NewMemory to obtain a mutable copy for a run.
	Init *Memory
}

// NumUops returns the number of static uops in the program.
func (p *Program) NumUops() int { return len(p.Uops) }

// NumBlocks returns the number of basic blocks in the program.
func (p *Program) NumBlocks() int { return len(p.BlockStart) }

// AddrOf returns the address of uop index i.
func (p *Program) AddrOf(i int) uint64 {
	return isa.TextBase + uint64(i)*isa.UopBytes
}

// IndexOf returns the uop index at address addr, or -1 when addr is outside
// the text segment.
func (p *Program) IndexOf(addr uint64) int {
	if addr < isa.TextBase || (addr-isa.TextBase)%isa.UopBytes != 0 {
		return -1
	}
	i := int((addr - isa.TextBase) / isa.UopBytes)
	if i >= len(p.Uops) {
		return -1
	}
	return i
}

// UopAt returns the static uop at addr, or nil when addr is not valid text.
func (p *Program) UopAt(addr uint64) *isa.Uop {
	i := p.IndexOf(addr)
	if i < 0 {
		return nil
	}
	return &p.Uops[i]
}

// BlockAddr returns the address of the first uop of block b.
func (p *Program) BlockAddr(b isa.BlockID) uint64 {
	return p.AddrOf(p.BlockStart[b])
}

// TakenTarget returns the address a branch uop jumps to when taken. For RET
// the target is dynamic and this returns 0.
func (p *Program) TakenTarget(u *isa.Uop) uint64 {
	if u.Op == isa.RET {
		return 0
	}
	return p.BlockAddr(u.Target)
}

// NewMemory returns a copy-on-write copy of the program's initial memory
// image.
func (p *Program) NewMemory() *Memory { return p.Init.Clone() }

// Validate checks structural invariants: branch targets in range, block
// bookkeeping consistent, terminal uop of the program is a branch (programs
// must not run off the end of the text segment).
func (p *Program) Validate() error {
	if len(p.Uops) == 0 {
		return fmt.Errorf("program %q has no uops", p.Name)
	}
	if len(p.BlockOf) != len(p.Uops) {
		return fmt.Errorf("program %q: BlockOf length %d != uop count %d", p.Name, len(p.BlockOf), len(p.Uops))
	}
	for i := range p.Uops {
		u := &p.Uops[i]
		if u.Op.IsBranch() && u.Op != isa.RET {
			if int(u.Target) < 0 || int(u.Target) >= len(p.BlockStart) {
				return fmt.Errorf("program %q: uop %d (%s) targets invalid block %d", p.Name, i, u, u.Target)
			}
		}
	}
	last := &p.Uops[len(p.Uops)-1]
	if !last.Op.IsBranch() {
		return fmt.Errorf("program %q: final uop %s is not a branch; control would fall off the text segment", p.Name, last)
	}
	for b, start := range p.BlockStart {
		if start < 0 || start >= len(p.Uops) {
			return fmt.Errorf("program %q: block %d starts at invalid index %d", p.Name, b, start)
		}
	}
	return nil
}

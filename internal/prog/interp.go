package prog

import (
	"fmt"

	"runaheadsim/internal/isa"
)

// Exec records the architectural effects of one interpreted uop. The
// simulator's instrumentation and the equivalence tests both consume it.
type Exec struct {
	Index  int    // static uop index
	PC     uint64 // address of the uop
	NextPC uint64 // address of the next uop on the correct path
	Taken  bool   // branch outcome (false for non-branches)
	EA     uint64 // effective address for memory uops
	Value  int64  // destination value (loads: loaded value; stores: stored value)
}

// Interp executes a Program architecturally, one uop at a time. It defines
// the reference semantics against which the out-of-order core is checked.
type Interp struct {
	P    *Program
	Mem  *Memory
	Regs [isa.NumArchRegs]int64

	// Observe, when non-nil, is called after every executed uop with the
	// static uop and its architectural effects. Profilers layer functional
	// models on it — basic-block vectors, caches, branch predictors,
	// dataflow schedules; the architectural outcome is the same with or
	// without it.
	Observe func(u *isa.Uop, e Exec)

	pc    int // current uop index
	count uint64
}

// NewInterp returns an interpreter positioned at the program entry with a
// fresh copy of the initial memory image.
func NewInterp(p *Program) *Interp {
	return &Interp{P: p, Mem: p.NewMemory()}
}

// PC returns the address of the next uop to execute.
func (in *Interp) PC() uint64 { return in.P.AddrOf(in.pc) }

// Count returns the number of uops executed so far.
func (in *Interp) Count() uint64 { return in.count }

// Step executes one uop and returns its architectural effects.
func (in *Interp) Step() Exec {
	i := in.pc
	if i < 0 || i >= len(in.P.Uops) {
		panic(fmt.Sprintf("prog: interpreter PC %d out of range (program %q)", i, in.P.Name))
	}
	u := &in.P.Uops[i]
	e := Exec{Index: i, PC: in.P.AddrOf(i)}
	next := i + 1
	var s1, s2 int64
	if u.Src1 != isa.RegNone {
		s1 = in.Regs[u.Src1]
	}
	if u.Src2 != isa.RegNone {
		s2 = in.Regs[u.Src2]
	}
	switch {
	case u.Op.IsLoad():
		e.EA = EffAddr(u, s1, s2)
		e.Value = in.Mem.Read64(e.EA)
		in.Regs[u.Dst] = e.Value
	case u.Op.IsStore():
		e.EA = EffAddr(u, s1, s2)
		e.Value = s2
		in.Mem.Write64(e.EA, s2)
	case u.Op.IsBranch():
		e.Taken = BranchTaken(u, s1, s2)
		if u.Op == isa.CALL && u.HasDst() {
			// Link: the return address is the uop after the call.
			in.Regs[u.Dst] = int64(in.P.AddrOf(i + 1))
		}
		if e.Taken {
			if u.Op == isa.RET {
				ti := in.P.IndexOf(uint64(s1))
				if ti < 0 {
					panic(fmt.Sprintf("prog: RET to invalid address %#x (program %q)", uint64(s1), in.P.Name))
				}
				next = ti
			} else {
				next = in.P.BlockStart[u.Target]
			}
		}
	case u.Op == isa.NOP:
		// no effect
	default:
		e.Value = Eval(u, s1, s2)
		in.Regs[u.Dst] = e.Value
	}
	in.pc = next
	e.NextPC = in.P.AddrOf(next)
	in.count++
	if in.Observe != nil {
		in.Observe(u, e)
	}
	return e
}

// Run executes n uops.
func (in *Interp) Run(n uint64) {
	for i := uint64(0); i < n; i++ {
		in.Step()
	}
}

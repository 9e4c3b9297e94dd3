package core

import (
	"runaheadsim/internal/bpred"
	"runaheadsim/internal/isa"
	"runaheadsim/internal/memsys"
)

// PhysReg names a physical register.
type PhysReg uint16

// noPhys marks an absent physical operand.
const noPhys = PhysReg(0xffff)

// DynInst is one dynamic micro-op in flight. Fields are grouped by size
// so the struct packs without padding. The dependence-walk provenance
// (producer sequence numbers) is not here: the depTracker keeps it per
// slot, and only on a DepTrack core.
type DynInst struct {
	Seq   uint64
	PC    uint64
	Index int // static uop index in the program (-1 for none)
	U     *isa.Uop

	ROBPos int // position in the ROB ring (stable while in flight)

	// Branch state.
	Pred       bpred.Prediction
	PredTarget uint64
	Target     uint64

	// Memory state.
	EA        uint64
	StoreData int64
	// memValue is the committed-image value a load read when its miss was
	// accepted; it becomes Value if the load completes with data.
	memValue int64

	Value int64

	// gen is the pool-reuse generation (see Core.newDyn). Every reference
	// that can outlive the uop's window residency — scheduled events, memory
	// completion tokens, waiter-list entries — captures gen at creation
	// and ignores the reference when it no longer matches: the slot has been
	// recycled for a different dynamic instruction.
	gen uint64

	// FetchCycle is when the uop entered the front end (the tracer's
	// lifetime track).
	FetchCycle int64

	// slot is the DynInst's fixed index in Core.slots, which memory tokens
	// carry in place of a pointer.
	slot int32

	// Rename state.
	PDst, PSrc1, PSrc2 PhysReg
	POld               PhysReg // previous mapping of the destination, for recovery

	// Lifecycle flags.
	Renamed  bool
	Issued   bool
	Executed bool
	Squashed bool

	// Provenance.
	Runahead   bool // renamed while the core was in runahead mode
	FromBuffer bool // issued from the runahead buffer

	IsBranch  bool
	PredTaken bool
	Taken     bool
	Mispred   bool

	EAValid   bool
	MemLevel  memsys.Level
	DRAMBound bool // the miss was seen to go to DRAM
	// memIssued records that the memory request for a load has been sent
	// (prevents double issue across retries).
	memIssued bool

	Poisoned bool

	// pendingSrcs counts register sources still awaiting a wakeup broadcast
	// (event scheduler only; see sched.go). Meaningless after a squash —
	// stale waiter-list entries are dropped lazily.
	pendingSrcs int8
}

// srcReady reports whether physical register p satisfies an operand: free
// (no operand), ready, or poisoned (poison counts as ready and propagates at
// execute).
func (c *Core) srcReady(p PhysReg) bool {
	if p == noPhys {
		return true
	}
	return c.prf.ready[p] || c.prf.poison[p]
}

func (c *Core) srcPoisoned(p PhysReg) bool {
	return p != noPhys && c.prf.poison[p]
}

func (c *Core) srcVal(p PhysReg) int64 {
	if p == noPhys {
		return 0
	}
	return c.prf.val[p]
}

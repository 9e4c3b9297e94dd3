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

// DynInst is one dynamic micro-op in flight.
type DynInst struct {
	Seq   uint64
	PC    uint64
	Index int // static uop index in the program (-1 for none)
	U     *isa.Uop

	// Rename state.
	PDst, PSrc1, PSrc2 PhysReg
	POld               PhysReg // previous mapping of the destination, for recovery
	ROBPos             int     // position in the ROB ring (stable while in flight)

	// Lifecycle flags.
	Renamed  bool
	Issued   bool
	Executed bool
	Squashed bool

	// Provenance.
	Runahead   bool // renamed while the core was in runahead mode
	FromBuffer bool // issued from the runahead buffer

	// Branch state.
	IsBranch   bool
	Pred       bpred.Prediction
	PredTaken  bool
	PredTarget uint64
	Taken      bool
	Target     uint64
	Mispred    bool

	// Memory state.
	EA        uint64
	EAValid   bool
	StoreData int64
	MemLevel  memsys.Level
	DRAMBound bool // the miss was seen to go to DRAM
	// memIssued records that the memory request for a load has been sent
	// (prevents double issue across retries).
	memIssued bool
	// memValue is the committed-image value a load read when its miss was
	// accepted; it becomes Value if the load completes with data.
	memValue int64

	// Value and poison.
	Value    int64
	Poisoned bool

	// pendingSrcs counts register sources still awaiting a wakeup broadcast
	// (event scheduler only; see sched.go). Meaningless after a squash —
	// stale scheduler entries are dropped lazily.
	pendingSrcs int8

	// gen is the pool-reuse generation (see Core.newDyn). Every reference
	// that can outlive the uop's window residency — scheduled events, memory
	// completion tokens, lazy scheduler entries — captures gen at creation
	// and ignores the reference when it no longer matches: the slot has been
	// recycled for a different dynamic instruction.
	gen uint64
	// slot is the DynInst's fixed index in Core.slots, which memory tokens
	// carry in place of a pointer.
	slot int32

	// Timing.
	FetchCycle, IssueCycle, DoneCycle int64

	// Dependence-tracking provenance (valid when cfg.DepTrack).
	Prod1, Prod2, ProdStore uint64 // producing seq numbers, 0 = none
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

func (c *Core) srcProd(p PhysReg) uint64 {
	if p == noPhys {
		return 0
	}
	return c.prf.prod[p]
}

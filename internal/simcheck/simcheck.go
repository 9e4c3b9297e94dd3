// Package simcheck is the runtime sanitizer for the simulator: a lockstep
// architectural oracle plus per-cycle structural invariant sweeps.
//
// Attach runs the internal/prog functional interpreter beside the timing
// core. At every correct-path retirement the oracle steps the interpreter
// one uop and compares PCs, effective addresses, destination values, branch
// outcomes, and the full architectural register file; any divergence dumps
// the offending uop, the cycle, and the run's CPI-stack context. Every cycle
// the cheap structural invariants run (ROB seq order, queue-occupancy and
// free-list conservation, MSHR conservation), and every DeepInterval cycles
// the full scans run (exact physical-register partition, LRU stack
// integrity, inclusive-LLC containment).
//
// The sanitizer is enabled by the harness -check path, or unconditionally in
// binaries built with the simcheck build tag (`go test -tags simcheck ./...`
// — the `make check` suite). A commit-stream FNV digest plus StatsDigest
// give the byte-identical fingerprints the determinism regression tests
// compare across same-seed runs.
package simcheck

import (
	"fmt"

	"runaheadsim/internal/core"
	"runaheadsim/internal/isa"
	"runaheadsim/internal/prog"
)

// Options tunes an attached Checker.
type Options struct {
	// DeepInterval is the cycle period of the full-scan invariants (0 = 64).
	// The cheap conservation checks run every cycle regardless.
	DeepInterval int64
	// Failf handles a detected violation. The default panics, which is what
	// command-line -check runs want; tests install t.Fatalf-style handlers.
	Failf func(format string, args ...any)
}

// Checker is an attached sanitizer. All methods are single-goroutine, like
// the core itself.
type Checker struct {
	c    *core.Core
	in   *prog.Interp
	opts Options

	commits uint64
	lastSeq uint64
	digest  uint64
}

// Attach hooks a Checker onto c, which must have been built from p and not
// yet run. The interpreter gets its own copy of p's initial memory image, so
// the oracle is blind to everything but the core's committed state.
func Attach(c *core.Core, p *prog.Program, opts Options) *Checker {
	if opts.DeepInterval <= 0 {
		opts.DeepInterval = 64
	}
	if opts.Failf == nil {
		opts.Failf = func(format string, args ...any) {
			panic("simcheck: " + fmt.Sprintf(format, args...))
		}
	}
	k := &Checker{c: c, in: prog.NewInterp(p), opts: opts, digest: fnvOffset}
	c.SetCommitHook(k.onCommit)
	c.SetCycleHook(k.onCycle)
	return k
}

// Detach removes the checker's hooks from the core.
func (k *Checker) Detach() {
	k.c.SetCommitHook(nil)
	k.c.SetCycleHook(nil)
}

// Commits returns the number of correct-path retirements observed.
func (k *Checker) Commits() uint64 { return k.commits }

// CommitDigest returns the FNV-1a digest of the observed commit stream
// (PC, value, and effective address of every retirement). Two same-seed
// runs must produce identical digests.
func (k *Checker) CommitDigest() uint64 { return k.digest }

// onCommit is the lockstep oracle: one interpreter step per retirement.
func (k *Checker) onCommit(d *core.DynInst) {
	k.commits++
	if k.commits > 1 && d.Seq <= k.lastSeq {
		k.failf(d, "ROB seq order broken at commit: seq %d retired after seq %d", d.Seq, k.lastSeq)
	}
	k.lastSeq = d.Seq
	if d.Poisoned {
		k.failf(d, "poisoned uop retired on the correct path")
	}
	if want := k.in.PC(); d.PC != want {
		k.failf(d, "commit stream diverged: core retired PC %#x, oracle expects %#x", d.PC, want)
	}
	e := k.in.Step()
	u := d.U
	switch {
	case u.Op.IsLoad():
		if d.EA != e.EA {
			k.failf(d, "load EA mismatch: core %#x, oracle %#x", d.EA, e.EA)
		}
		if d.Value != e.Value {
			k.failf(d, "load value mismatch at EA %#x: core %d, oracle %d", e.EA, d.Value, e.Value)
		}
	case u.Op.IsStore():
		if d.EA != e.EA {
			k.failf(d, "store EA mismatch: core %#x, oracle %#x", d.EA, e.EA)
		}
		if d.StoreData != e.Value {
			k.failf(d, "store data mismatch at EA %#x: core %d, oracle %d", e.EA, d.StoreData, e.Value)
		}
	case u.Op.IsBranch():
		if d.Taken != e.Taken {
			k.failf(d, "branch outcome mismatch: core taken=%v, oracle taken=%v", d.Taken, e.Taken)
		}
		if u.HasDst() && d.Value != e.Value {
			k.failf(d, "link value mismatch: core %d, oracle %d", d.Value, e.Value)
		}
	default:
		if u.HasDst() && d.Value != e.Value {
			k.failf(d, "result mismatch: core %d, oracle %d", d.Value, e.Value)
		}
	}
	regs := k.c.ArchRegs()
	for r := 0; r < isa.NumArchRegs; r++ {
		if regs[r] != k.in.Regs[r] {
			k.failf(d, "architectural r%d diverged after commit: core %d, oracle %d", r, regs[r], k.in.Regs[r])
		}
	}
	k.digest = fnvMix(k.digest, d.PC)
	k.digest = fnvMix(k.digest, uint64(e.Value))
	k.digest = fnvMix(k.digest, e.EA)
}

// onCycle runs the structural invariant sweep.
func (k *Checker) onCycle() {
	deep := k.c.Now()%k.opts.DeepInterval == 0
	if err := k.c.CheckInvariants(deep); err != nil {
		k.failf(nil, "structural invariant violated: %v", err)
	}
}

// Finish runs the end-of-run checks: the full invariant scan and bit-exact
// equality of the committed memory image against the oracle's. Call it after
// the last Run on the core.
func (k *Checker) Finish() {
	if err := k.c.CheckInvariants(true); err != nil {
		k.failf(nil, "structural invariant violated at finish: %v", err)
	}
	regs := k.c.ArchRegs()
	for r := 0; r < isa.NumArchRegs; r++ {
		if regs[r] != k.in.Regs[r] {
			k.failf(nil, "architectural r%d diverged at finish: core %d, oracle %d", r, regs[r], k.in.Regs[r])
		}
	}
	if !k.c.Mem().Equal(k.in.Mem) {
		addr, _ := k.c.Mem().FirstDiff(k.in.Mem)
		k.failf(nil, "committed memory diverged at %#x: core %d, oracle %d",
			addr, k.c.Mem().Read64(addr), k.in.Mem.Read64(addr))
	}
}

// failf reports a violation with full context: the offending uop (when the
// failure is commit-side), the cycle, the CPI-stack shape of the run so far,
// and the machine-state dump.
func (k *Checker) failf(d *core.DynInst, format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	// Pin the violation into the flight recorder before reporting: Failf
	// usually panics, and the recover site dumps the ring — which should end
	// with the why, not just the last miss before it.
	k.c.FlightMark("simcheck: " + msg)
	uop := ""
	if d != nil {
		uop = fmt.Sprintf("\n  uop: seq=%d pc=%#x %v runahead=%v fromBuffer=%v", d.Seq, d.PC, d.U.Op, d.Runahead, d.FromBuffer)
	}
	k.opts.Failf("%s%s\n  cycle=%d commit#%d\n  cpi-stack: %s\n  %s",
		msg, uop, k.c.Now(), k.commits, cpiContext(k.c.Stats()), k.c.DebugDump())
}

// cpiContext renders the CPI stack one-line, for mismatch reports.
func cpiContext(st *core.Stats) string {
	s := ""
	for _, b := range core.CPIBuckets() {
		if b > 0 {
			s += " "
		}
		s += fmt.Sprintf("%s=%d", b, st.CPIStack[b])
	}
	return s
}

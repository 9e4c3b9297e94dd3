// Package multicore steps N independent cores against one shared memory
// system — the multi-programmed configuration the paper's bandwidth
// discussion (§6) points at: each core runs its own program, all cores
// contend for one inclusive LLC and one FR-FCFS DRAM controller, and a
// runahead core's prefetch stream competes with its neighbors' demand
// misses.
//
// The cluster owns the global clock. Each step advances the shared
// hierarchy once, then every core's pipeline in core-index order — for one
// core this is exactly the single-core Cycle sequence, which is what the
// multicore-equivalence gate pins down: a 1-core cluster is bit-identical
// (cycles, statistics, snapshot bytes) to the single-core machine in every
// runahead mode and both clock modes.
//
// Clock warping generalizes the single-core event-horizon machinery: the
// cluster warps only when every core is individually quiescent, to the
// minimum of all cores' wake sources and the shared hierarchy's event
// horizon, clamped by every core's accounting boundaries.
package multicore

import (
	"fmt"

	"runaheadsim/internal/core"
	"runaheadsim/internal/memsys"
	"runaheadsim/internal/prog"
)

// drainBound caps how many cycles Drain will run waiting for quiescence,
// mirroring the single-core bound: hitting it means a simulator bug, not a
// workload property.
const drainBound = 10_000_000

// Cluster is N cores sharing one memory hierarchy under one clock.
type Cluster struct {
	cfg   core.Config
	h     *memsys.Hierarchy
	cores []*core.Core
	now   int64

	// finish[i] is the cycle core i first reached the Run quota (relative to
	// the same origin as now), or 0 while it has not. Multi-programmed
	// metrics derive per-core IPC from it: a finished core keeps running —
	// and keeps contending for the LLC and DRAM — until every core reaches
	// quota, but its own measurement stops at the crossing.
	finish []int64

	// statsZero mirrors the cores' measurement origin (the cycle of the last
	// ResetStats), so finish times and Cycles stay run-relative.
	statsZero int64

	// Cluster-level warp accounting (host-side speed reporting, never
	// snapshotted — mirrors core.WarpStats).
	warps        int64
	warpedCycles int64
}

// New builds a cluster of len(progs) cores, core i running progs[i], all
// sharing one hierarchy built from cfg.Mem. The same core configuration
// (mode, widths, clock mode) applies to every core; programs carry the
// workload differences.
func New(cfg core.Config, progs []*prog.Program) *Cluster {
	if len(progs) == 0 {
		panic("multicore: a cluster needs at least one program")
	}
	// Same reference-kernel choice as the single-core constructor: the
	// per-cycle clock keeps the exhaustive DRAM grant scan so equivalence
	// compares two independently computed schedules.
	cfg.Mem.DRAM.Reference = cfg.ClockMode == core.ClockTick
	cl := &Cluster{
		cfg:    cfg,
		h:      memsys.NewShared(cfg.Mem, len(progs)),
		cores:  make([]*core.Core, len(progs)),
		finish: make([]int64, len(progs)),
	}
	for i, p := range progs {
		cl.cores[i] = core.NewShared(cfg, p, cl.h, i)
	}
	return cl
}

// Cores returns the member cores, indexed by requestor ID.
func (cl *Cluster) Cores() []*core.Core { return cl.cores }

// Hierarchy returns the shared memory system.
func (cl *Cluster) Hierarchy() *memsys.Hierarchy { return cl.h }

// Now returns the current global cycle.
func (cl *Cluster) Now() int64 { return cl.now }

// FinishCycle returns the run-relative cycle at which core i reached the
// last Run's quota, or 0 if it has not.
func (cl *Cluster) FinishCycle(i int) int64 { return cl.finish[i] }

// WarpStats reports the cluster clock warp's work (warps fired, cycles
// skipped). Like core.WarpStats it is host-side speed accounting, never part
// of simulated results.
func (cl *Cluster) WarpStats() (warps, skipped int64) { return cl.warps, cl.warpedCycles }

// Step advances the whole cluster by one clock: the shared hierarchy ticks
// first, then every core's pipeline in index order — the same sequence as
// the single-core Cycle, fanned out.
func (cl *Cluster) Step() {
	cl.now++
	// Clocks first: hierarchy events fired by Tick deliver core completions
	// that stamp the owning core's current cycle.
	for _, c := range cl.cores {
		c.SyncClock(cl.now)
	}
	cl.h.Tick(cl.now)
	for _, c := range cl.cores {
		c.StepExt(cl.now)
	}
	if cl.cfg.ClockMode == core.ClockWarp {
		cl.maybeWarp()
	}
}

// maybeWarp fast-forwards the global clock across a stretch in which every
// core is provably idle. The target is the minimum over all cores' wake
// sources plus the shared hierarchy's event horizon, then clamped by every
// core's accounting boundaries; any single core with work this cycle vetoes
// the warp for everyone (the shared clock cannot split).
func (cl *Cluster) maybeWarp() {
	t := int64(memsys.Never)
	for _, c := range cl.cores {
		ct, ok := c.WarpSources()
		if !ok {
			return
		}
		if ct < t {
			t = ct
		}
	}
	if ht := cl.h.NextEvent(); ht < t {
		t = ht
	}
	if t == memsys.Never {
		return // dead or drained: tick per cycle, as the reference would
	}
	for _, c := range cl.cores {
		t = c.WarpClamp(t)
	}
	if t <= cl.now+1 {
		return
	}
	skip := t - 1 - cl.now
	for _, c := range cl.cores {
		c.ApplyWarp(t)
	}
	cl.now = t - 1
	cl.warps++
	cl.warpedCycles += skip
}

// Run steps the cluster until every core has committed at least quota
// correct-path uops, recording each core's finish cycle at its first
// crossing. Cores that finish early keep executing (their memory traffic is
// the contention under study) but their measurement stops at the crossing.
// It finalizes and returns every core's statistics.
func (cl *Cluster) Run(quota uint64) []*core.Stats {
	for i := range cl.finish {
		if cl.cores[i].Stats().Committed >= quota && cl.finish[i] == 0 {
			cl.finish[i] = cl.now - cl.statsZero
		}
	}
	for !cl.allFinished(quota) {
		cl.Step()
		for i, c := range cl.cores {
			if cl.finish[i] == 0 && c.Stats().Committed >= quota {
				cl.finish[i] = cl.now - cl.statsZero
			}
			c.WatchdogCheck()
		}
	}
	out := make([]*core.Stats, len(cl.cores))
	for i, c := range cl.cores {
		out[i] = c.FinalizeRun()
	}
	return out
}

func (cl *Cluster) allFinished(quota uint64) bool {
	for _, c := range cl.cores {
		if c.Stats().Committed < quota {
			return false
		}
	}
	return true
}

// ResetStats zeroes every core's and the shared hierarchy's statistics while
// preserving microarchitectural state, and restarts the finish-cycle
// measurement. Harnesses call it between warmup and measurement.
func (cl *Cluster) ResetStats() {
	for _, c := range cl.cores {
		c.ResetStats() // each call also resets the (shared) hierarchy: idempotent
	}
	for i := range cl.finish {
		cl.finish[i] = 0
	}
	cl.statsZero = cl.now
}

// Quiesced reports whether every core is core-locally quiescent and the
// shared hierarchy is drained.
func (cl *Cluster) Quiesced() bool {
	for _, c := range cl.cores {
		if !c.QuiescedCore() {
			return false
		}
	}
	return cl.h.Drained()
}

// Drain runs the cluster to quiescence with every core's fetch starved, the
// precondition for snapshotting (in-flight work has no wire format).
func (cl *Cluster) Drain() error {
	for _, c := range cl.cores {
		c.SetDraining(true)
	}
	defer func() {
		for _, c := range cl.cores {
			c.SetDraining(false)
		}
	}()
	start := cl.now
	for !cl.Quiesced() {
		cl.Step()
		if cl.now-start > drainBound {
			return fmt.Errorf("multicore: drain did not quiesce within %d cycles", drainBound)
		}
	}
	return nil
}

// CheckInvariants verifies the shared hierarchy's structural invariants
// (per-requestor MSHR conservation, arbiter bookkeeping, and — with deep —
// cache integrity plus all-requestor inclusion).
func (cl *Cluster) CheckInvariants(deep bool) error {
	return cl.h.CheckInvariants(deep)
}

package core

import "runaheadsim/internal/metrics"

// Self-profiling: the simulator measuring itself (not the simulated machine).
//
// The hot path never touches the process-wide atomic registry. Per-cycle and
// per-event counts accumulate in plain fields on the single-goroutine Core
// (coreProf, plus counters owned by the scheduler, DRAM controller, and MSHR
// files), and publishMetrics flushes the deltas into metrics.Default at Run
// boundaries. That keeps the per-cycle cost of metrics at a handful of plain
// increments — the same discipline Stats uses — while the registry still sees
// process-wide totals across every core a sweep runs.

// warpVeto classifies why maybeWarp declined to fast-forward at the end of a
// cycle. The veto mix tells you what the warp is paying for on a workload:
// compute-bound programs veto on progress nearly every cycle (the warp buys
// nothing), memory-bound ones should veto rarely and jump far.
type warpVeto uint8

const (
	vetoProgress      warpVeto = iota // uops issued/renamed/committed this cycle
	vetoRunaheadExit                  // pending runahead exit flushes next cycle
	vetoCommitHead                    // executed ROB head retires next cycle
	vetoStoreBuffer                   // store-buffer head still retrying
	vetoFetch                         // fetch stage not inert
	vetoRunaheadEntry                 // runahead entry attempt unresolved
	vetoNoEvent                       // no future wake source exists
	vetoAdjacent                      // next event is the very next cycle
	nWarpVetoes
)

var warpVetoNames = [nWarpVetoes]string{
	"progress", "runahead_exit", "commit_head", "store_buffer",
	"fetch", "runahead_entry", "no_event", "adjacent",
}

// coreProf holds the plain-field accumulators and the last-published snapshot
// (prev) that publishMetrics diffs against. None of it is simulated state:
// nothing here is snapshotted, compared by equivalence tests, or reset by
// ResetStats (except the prevs of counters ResetStats zeroes).
type coreProf struct {
	veto            [nWarpVetoes]uint64
	schedBroadcasts uint64 // completion broadcasts with at least one waiter
	schedWakeups    uint64 // waiter entries released by broadcasts (fan-out sum)
	schedSelects    uint64 // issue-select invocations (≈ unwarped cycles)
	schedQueueSum   uint64 // ready, unissued uops (set ready bits) summed over selects
	dynPoolHits     uint64 // DynInsts recycled from the pool
	dynPoolNews     uint64 // DynInsts from the Go allocator

	prev struct {
		veto                                                       [nWarpVetoes]uint64
		schedBroadcasts, schedWakeups, schedSelects, schedQueueSum uint64
		dynPoolHits, dynPoolNews                                   uint64
		warps, warpedCycles, now, committed                        uint64
		dramSkips, dramScans                                       uint64
		mshrHits, mshrNews                                         uint64
	}
}

// cm holds the registry counters publishMetrics flushes into, registered in
// metrics.Default when the package loads.
var cm = registerCoreMetrics(metrics.Default)

type coreMetrics struct {
	cycles, instructions *metrics.Counter

	warps, warpedCycles *metrics.Counter
	veto                [nWarpVetoes]*metrics.Counter

	schedBroadcasts, schedWakeups   *metrics.Counter
	schedSelects, schedQueueEntries *metrics.Counter

	dramHorizonSkips, dramGrantScans *metrics.Counter
	mshrPoolHits, mshrPoolNews       *metrics.Counter
	dynPoolHits, dynPoolNews         *metrics.Counter
}

func registerCoreMetrics(r *metrics.Registry) (m coreMetrics) {
	m.cycles = r.Counter("sim_cycles_total", "simulated cycles executed (all cores, including warped spans)")
	m.instructions = r.Counter("sim_instructions_total", "instructions committed on the correct path (all cores)")
	m.warps = r.Counter("core_warp_jumps_total", "clock-warp fast-forwards taken")
	m.warpedCycles = r.Counter("core_warp_skipped_cycles_total", "simulated cycles skipped by clock warps")
	for v := warpVeto(0); v < nWarpVetoes; v++ {
		m.veto[v] = r.Counter("core_warp_veto_"+warpVetoNames[v]+"_total",
			"cycles the quiescence gate vetoed a warp: "+warpVetoNames[v])
	}
	m.schedBroadcasts = r.Counter("sched_broadcasts_total", "register-ready broadcasts delivered to at least one waiter")
	m.schedWakeups = r.Counter("sched_wakeups_total", "waiter entries released by broadcasts (fan-out sum)")
	m.schedSelects = r.Counter("sched_selects_total", "issue-select invocations of the event scheduler")
	m.schedQueueEntries = r.Counter("sched_queue_entries_total",
		"ready, unissued uops summed over selects (divide by sched_selects_total for mean depth)")
	m.dramHorizonSkips = r.Counter("dram_horizon_skips_total", "DRAM channel ticks skipped by the grant horizon")
	m.dramGrantScans = r.Counter("dram_grant_scans_total", "DRAM channel ticks that ran the full grant scan")
	m.mshrPoolHits = r.Counter("mshr_pool_hits_total", "MSHR allocations served from the recycle pool (all levels)")
	m.mshrPoolNews = r.Counter("mshr_pool_news_total", "MSHR allocations that hit the Go allocator (all levels)")
	m.dynPoolHits = r.Counter("core_dyn_pool_hits_total", "DynInst allocations served from the recycle pool")
	m.dynPoolNews = r.Counter("core_dyn_pool_news_total", "DynInst allocations that hit the Go allocator")
	return m
}

// pubDelta adds cur-prev to ctr and advances prev. Counters here are
// monotonic between flushes, so the delta is never negative.
//
//simlint:hotpath
func pubDelta(ctr *metrics.Counter, cur uint64, prev *uint64) {
	if d := cur - *prev; d != 0 {
		ctr.Add(d)
		*prev = cur
	}
}

// publishMetrics flushes the self-profiling deltas accumulated since the last
// flush into the process-wide registry. Called at the end of every Run — off
// the per-cycle path by construction, but sampled intervals call Run once per
// interval, so the flush itself stays allocation-free.
//
//simlint:hotpath
func (c *Core) publishMetrics() {
	p := &c.prof.prev

	pubDelta(cm.cycles, uint64(c.now), &p.now)
	pubDelta(cm.instructions, c.st.Committed, &p.committed)

	pubDelta(cm.warps, uint64(c.warps), &p.warps)
	pubDelta(cm.warpedCycles, uint64(c.warpedCycles), &p.warpedCycles)
	for v := warpVeto(0); v < nWarpVetoes; v++ {
		pubDelta(cm.veto[v], c.prof.veto[v], &p.veto[v])
	}

	pubDelta(cm.schedBroadcasts, c.prof.schedBroadcasts, &p.schedBroadcasts)
	pubDelta(cm.schedWakeups, c.prof.schedWakeups, &p.schedWakeups)
	pubDelta(cm.schedSelects, c.prof.schedSelects, &p.schedSelects)
	pubDelta(cm.schedQueueEntries, c.prof.schedQueueSum, &p.schedQueueSum)

	dc := c.h.DRAM()
	pubDelta(cm.dramHorizonSkips, dc.HorizonSkips, &p.dramSkips)
	pubDelta(cm.dramGrantScans, dc.GrantScans, &p.dramScans)

	l1i, l1d := c.h.MSHRFilesR(c.memReq)
	llc := c.h.LLCMSHRFile()
	pubDelta(cm.mshrPoolHits, l1i.PoolHits+l1d.PoolHits+llc.PoolHits, &p.mshrHits)
	pubDelta(cm.mshrPoolNews, l1i.PoolNews+l1d.PoolNews+llc.PoolNews, &p.mshrNews)

	pubDelta(cm.dynPoolHits, c.prof.dynPoolHits, &p.dynPoolHits)
	pubDelta(cm.dynPoolNews, c.prof.dynPoolNews, &p.dynPoolNews)
}

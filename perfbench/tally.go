package main

import (
	"fmt"
	"runtime/metrics"

	"runaheadsim/internal/core"
	"runaheadsim/internal/memsys"
	simmetrics "runaheadsim/internal/metrics"
)

// tally accumulates one pass's simulated counts over its cells. Everything
// here comes from the simulator's own counters: core.Stats, the memory
// hierarchy, DRAM and prefetcher fields, and deltas of the metrics.Default
// registry across the pass.
type tally struct {
	st *core.Stats // every cell's core statistics, merged (per core on multicore)

	llcAcc, llcMiss     uint64
	dramReqs            uint64
	dramReads, dramWr   uint64
	rowHits, rowConfl   uint64
	dramWait, dramGrant uint64
	mshrPeakL1D         int
	mshrPeakLLC         int
	pfIssued, pfUseful  uint64
	pfUops              uint64 // committed uops of the cells that ran a prefetcher
	arbGrants, arbWait  uint64

	clusterCycles, clusterSkipped int64

	// Sampled runs.
	sampledRuns  int
	detailedUops uint64
	measuredUops uint64
	phases       int
	ipcCIRelSum  float64

	// reg holds metrics.Default deltas across the pass, by instrument name.
	reg map[string]float64
}

func newTally() *tally { return &tally{st: core.NewStats()} }

// addHierarchy folds one memory hierarchy's counters in. committed is the
// uops the hierarchy served, for the prefetcher's per-kuop rate.
func (t *tally) addHierarchy(h *memsys.Hierarchy, committed uint64) {
	t.llcAcc += h.LLCDemandAccesses
	t.llcMiss += h.LLCDemandMisses
	t.dramReqs += h.TotalDRAMRequests()
	dc := h.DRAM()
	t.dramReads += dc.Reads
	t.dramWr += dc.Writes
	t.rowHits += dc.RowHits
	t.rowConfl += dc.RowConflicts
	for _, pr := range dc.PerRequestor {
		t.dramWait += pr.WaitCycles
		t.dramGrant += pr.Reads + pr.Writes
	}
	for r := 0; r < h.Requestors(); r++ {
		_, l1d := h.MSHRFilesR(r)
		t.mshrPeakL1D = max(t.mshrPeakL1D, l1d.Peak)
		rs := h.Req(r)
		t.arbGrants += rs.LLCArbGrants
		t.arbWait += rs.LLCArbWaitCycles
	}
	t.mshrPeakLLC = max(t.mshrPeakLLC, h.LLCMSHRFile().Peak)
	if pf := h.Prefetcher(); pf != nil {
		c := pf.Counters()
		t.pfIssued += c.Issued
		t.pfUseful += c.Useful
		t.pfUops += committed
	}
}

// warpVetoes are the core's warp veto reasons, as its registry names them.
var warpVetoes = []string{"progress", "runahead_exit", "commit_head", "store_buffer",
	"fetch", "runahead_entry", "no_event", "adjacent"}

// registryNames are the metrics.Default counters the per-layer metrics read.
func registryNames() []string {
	names := []string{
		"sim_cycles_total", "sim_instructions_total",
		"core_warp_jumps_total", "core_warp_skipped_cycles_total",
		"sched_broadcasts_total", "sched_wakeups_total", "sched_selects_total", "sched_queue_entries_total",
		"dram_horizon_skips_total", "dram_grant_scans_total",
		"mshr_pool_hits_total", "mshr_pool_news_total",
		"core_dyn_pool_hits_total", "core_dyn_pool_news_total",
	}
	for _, v := range warpVetoes {
		names = append(names, "core_warp_veto_"+v+"_total")
	}
	return names
}

// readRegistry returns the current value of every counter in
// metrics.Default. The core registers its instruments when the first core is
// built, so a read before that finds none of them.
func readRegistry() map[string]float64 {
	got := make(map[string]float64)
	for _, m := range simmetrics.Default.Export() {
		got[m.Name] = float64(m.Value)
	}
	return got
}

// regDelta returns after-before for every counter the benchmark reads. It
// fails when after lacks one, so a renamed counter cannot read as zero.
func regDelta(before, after map[string]float64) (map[string]float64, error) {
	d := make(map[string]float64)
	for _, n := range registryNames() {
		v, ok := after[n]
		if !ok {
			return nil, fmt.Errorf("metrics registry has no %q", n)
		}
		d[n] = v - before[n]
	}
	return d, nil
}

// heapAllocBytes is the process's cumulative heap allocation (the TotalAlloc
// of runtime.MemStats), read without stopping the world.
func heapAllocBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

package main

import (
	"runaheadsim/internal/core"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the simulator sees, from the untraced
// passes.
var endToEnd = []metricDef{
	{"wall_s", "s"},
	{"sim_uops_per_s", "uops/s"},
	{"setup_s", "s"},
	{"max_rss_mb", "MB"},
}

// perLayer are the per-layer metrics, from the traced passes. Each is
// <module>.<metric>; README.md maps each to the end-to-end metric and the
// workload it should move. A metric that does not apply to a workload reads
// 0 there.
func perLayer() []metricDef {
	defs := []metricDef{
		{"failed_frac", "ratio"},
		{"ipc_ci_pct", "%"},
		{"bench.trace_overhead_pct", "%"},
		{"workload.load_s", "s"},
		{"core.new_s", "s"},
		{"core.run_s", "s"},
		{"core.ns_per_cycle", "ns/cycle"},
		{"core.ns_per_uop", "ns/uop"},
		{"core.alloc_bytes_per_kuop", "B/kuop"},
		{"core.cycles", "cycles"},
		{"core.committed_uops", "uops"},
		{"core.ipc", "uops/cycle"},
		{"core.dyn_pool_hit_frac", "ratio"},
	}
	for _, b := range core.CPIBuckets() {
		defs = append(defs, metricDef{"core.cpi." + b.String(), "ratio"})
	}
	defs = append(defs,
		metricDef{"core.sched.selects_per_cycle", "1/cycle"},
		metricDef{"core.sched.queue_depth", "entries"},
		metricDef{"core.sched.wakeups_per_broadcast", "wakeups"},
		metricDef{"core.warp.skipped_frac", "ratio"},
		metricDef{"core.warp.mean_jump", "cycles"},
	)
	for _, v := range warpVetoes {
		defs = append(defs, metricDef{"core.warp.veto." + v + "_frac", "ratio"})
	}
	return append(defs,
		metricDef{"core.runahead.cycle_frac", "ratio"},
		metricDef{"core.runahead.buffer_cycle_frac", "ratio"},
		metricDef{"core.runahead.misses_per_interval", "misses"},
		metricDef{"core.runahead.uops_per_interval", "uops"},
		metricDef{"core.runahead.chains_generated", "count"},
		metricDef{"core.runahead.chain_gen_fail_frac", "ratio"},
		metricDef{"core.runahead.rob_reads_per_chain", "reads"},
		metricDef{"core.runahead.chain_cache_hit_frac", "ratio"},
		metricDef{"core.runahead.chain_cache_exact_frac", "ratio"},
		metricDef{"core.runahead.entries_failed_frac", "ratio"},
		metricDef{"bpred.mispredict_frac", "ratio"},
		metricDef{"memsys.llc_mpki", "1/kuop"},
		metricDef{"memsys.llc_demand_miss_frac", "ratio"},
		metricDef{"cache.mshr_peak.l1d", "entries"},
		metricDef{"cache.mshr_peak.llc", "entries"},
		metricDef{"cache.mshr_pool_hit_frac", "ratio"},
		metricDef{"dram.requests_per_kuop", "1/kuop"},
		metricDef{"dram.row_hit_frac", "ratio"},
		metricDef{"dram.row_conflict_frac", "ratio"},
		metricDef{"dram.wait_cycles_per_request", "cycles"},
		metricDef{"dram.horizon_skip_frac", "ratio"},
		metricDef{"prefetch.issued_per_kuop", "1/kuop"},
		metricDef{"prefetch.useful_frac", "ratio"},
		metricDef{"multicore.run_s", "s"},
		metricDef{"multicore.ns_per_cycle", "ns/cycle"},
		metricDef{"multicore.warp.skipped_frac", "ratio"},
		metricDef{"memsys.llc_arb_wait_per_grant", "cycles"},
		metricDef{"harness.plan_s", "s"},
		metricDef{"harness.bbv_profile_s", "s"},
		metricDef{"prog.fast_forward_s", "s"},
		metricDef{"prog.fast_forward_uops_per_s", "uops/s"},
		metricDef{"harness.window_warmup_s", "s"},
		metricDef{"harness.window_measure_s", "s"},
		metricDef{"harness.detailed_uop_frac", "ratio"},
		metricDef{"harness.worker_busy_frac", "ratio"},
		metricDef{"phases.k", "phases"},
	)
}

func div(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layerValues computes one traced pass's per-layer metrics from its tally
// and the summed span durations by name. The run-level metrics (failed_frac,
// bench.trace_overhead_pct) are filled in by the caller.
func layerValues(o *passOut, span map[string]float64) map[string]float64 {
	t, st, r := o.t, o.t.st, o.t.reg
	cycles, uops := r["sim_cycles_total"], r["sim_instructions_total"]
	window := span["harness.window_warmup"] + span["harness.window_measure"]
	// Host time inside the simulator's run loops: Core.Run, Cluster.Run, or
	// the sampled windows — whichever the workload drives.
	runSec := span["core.run"] + span["multicore.run"] + window
	m := map[string]float64{
		"ipc_ci_pct":                100 * div(t.ipcCIRelSum, float64(t.sampledRuns)),
		"workload.load_s":           span["workload.load"],
		"core.new_s":                span["core.new"],
		"core.run_s":                span["core.run"],
		"core.ns_per_cycle":         div(runSec*1e9, cycles),
		"core.ns_per_uop":           div(runSec*1e9, uops),
		"core.alloc_bytes_per_kuop": div(1000*float64(o.alloc), uops),
		"core.cycles":               float64(st.Cycles),
		"core.committed_uops":       float64(st.Committed),
		"core.ipc":                  div(float64(st.Committed), float64(st.Cycles)),
		"core.dyn_pool_hit_frac":    div(r["core_dyn_pool_hits_total"], r["core_dyn_pool_hits_total"]+r["core_dyn_pool_news_total"]),

		"core.sched.selects_per_cycle":     div(r["sched_selects_total"], cycles),
		"core.sched.queue_depth":           div(r["sched_queue_entries_total"], r["sched_selects_total"]),
		"core.sched.wakeups_per_broadcast": div(r["sched_wakeups_total"], r["sched_broadcasts_total"]),
		"core.warp.skipped_frac":           div(r["core_warp_skipped_cycles_total"], cycles),
		"core.warp.mean_jump":              div(r["core_warp_skipped_cycles_total"], r["core_warp_jumps_total"]),

		"core.runahead.cycle_frac":             div(float64(st.RunaheadCycles), float64(st.Cycles)),
		"core.runahead.buffer_cycle_frac":      div(float64(st.RunaheadBufferCycles), float64(st.Cycles)),
		"core.runahead.misses_per_interval":    div(float64(st.RunaheadMissesLLC), float64(st.RunaheadIntervals)),
		"core.runahead.uops_per_interval":      div(float64(st.RunaheadUops), float64(st.RunaheadIntervals)),
		"core.runahead.chains_generated":       float64(st.ChainsGenerated),
		"core.runahead.chain_gen_fail_frac":    div(float64(st.ChainGenFailures), float64(st.ChainsGenerated+st.ChainGenFailures)),
		"core.runahead.rob_reads_per_chain":    div(float64(st.ROBChainReads), float64(st.ChainsGenerated)),
		"core.runahead.chain_cache_hit_frac":   div(float64(st.ChainCacheHits), float64(st.ChainCacheHits+st.ChainCacheMisses)),
		"core.runahead.chain_cache_exact_frac": div(float64(st.ChainCacheExact), float64(st.ChainCacheChecked)),
		"core.runahead.entries_failed_frac":    div(float64(st.RunaheadEntriesFailed), float64(st.RunaheadIntervals+st.RunaheadEntriesFailed)),

		"bpred.mispredict_frac":       div(float64(st.Mispredicts), float64(st.Branches)),
		"memsys.llc_mpki":             div(1000*float64(t.llcMiss), float64(st.Committed)),
		"memsys.llc_demand_miss_frac": div(float64(t.llcMiss), float64(t.llcAcc)),
		"cache.mshr_peak.l1d":         float64(t.mshrPeakL1D),
		"cache.mshr_peak.llc":         float64(t.mshrPeakLLC),
		"cache.mshr_pool_hit_frac":    div(r["mshr_pool_hits_total"], r["mshr_pool_hits_total"]+r["mshr_pool_news_total"]),

		"dram.requests_per_kuop":       div(1000*float64(t.dramReqs), float64(st.Committed)),
		"dram.row_hit_frac":            div(float64(t.rowHits), float64(t.dramReads+t.dramWr)),
		"dram.row_conflict_frac":       div(float64(t.rowConfl), float64(t.dramReads+t.dramWr)),
		"dram.wait_cycles_per_request": div(float64(t.dramWait), float64(t.dramGrant)),
		"dram.horizon_skip_frac":       div(r["dram_horizon_skips_total"], r["dram_horizon_skips_total"]+r["dram_grant_scans_total"]),
		"prefetch.issued_per_kuop":     div(1000*float64(t.pfIssued), float64(t.pfUops)),
		"prefetch.useful_frac":         div(float64(t.pfUseful), float64(t.pfIssued)),

		"multicore.run_s":               span["multicore.run"],
		"multicore.ns_per_cycle":        div(span["multicore.run"]*1e9, float64(t.clusterCycles)),
		"multicore.warp.skipped_frac":   div(float64(t.clusterSkipped), float64(t.clusterCycles)),
		"memsys.llc_arb_wait_per_grant": div(float64(t.arbWait), float64(t.arbGrants)),

		"harness.plan_s":               span["harness.plan"],
		"harness.bbv_profile_s":        o.profileSec,
		"prog.fast_forward_s":          span["prog.fast_forward"],
		"prog.fast_forward_uops_per_s": div(float64(o.ffUops), span["prog.fast_forward"]),
		"harness.window_warmup_s":      span["harness.window_warmup"],
		"harness.window_measure_s":     span["harness.window_measure"],
		"harness.detailed_uop_frac":    div(float64(t.detailedUops), float64(t.measuredUops)),
		"harness.worker_busy_frac":     div(window, span["harness.prewarm"]),
		"phases.k":                     div(float64(t.phases), float64(t.sampledRuns)),
	}
	var vetoes float64
	for _, v := range warpVetoes {
		vetoes += r["core_warp_veto_"+v+"_total"]
	}
	decisions := vetoes + r["core_warp_jumps_total"]
	for _, v := range warpVetoes {
		m["core.warp.veto."+v+"_frac"] = div(r["core_warp_veto_"+v+"_total"], decisions)
	}
	var cpiSum int64
	for _, c := range st.CPIStack {
		cpiSum += c
	}
	for _, b := range core.CPIBuckets() {
		m["core.cpi."+b.String()] = div(float64(st.CPIStack[b]), float64(cpiSum))
	}
	return m
}

package runaheadsim

import (
	"testing"

	"runaheadsim/internal/core"
	"runaheadsim/internal/metrics"
	"runaheadsim/internal/multicore"
	"runaheadsim/internal/prog"
	"runaheadsim/internal/workload"
)

// perfbenchRegistryNames mirrors registryNames() in perfbench/tally.go: the
// metrics.Default counters perfbench's per-layer metrics read. perfbench is
// a nested module that `go test ./...` here does not build, so this copy is
// what catches a renamed or deleted counter before every perfbench pass
// fails with "metrics registry has no ...". Keep the two lists equal.
func perfbenchRegistryNames() []string {
	names := []string{
		"sim_cycles_total", "sim_instructions_total",
		"core_warp_jumps_total", "core_warp_skipped_cycles_total",
		"sched_broadcasts_total", "sched_wakeups_total", "sched_selects_total", "sched_queue_entries_total",
		"dram_horizon_skips_total", "dram_grant_scans_total",
		"mshr_pool_hits_total", "mshr_pool_news_total",
		"core_dyn_pool_hits_total", "core_dyn_pool_news_total",
	}
	for _, v := range []string{"progress", "runahead_exit", "commit_head", "store_buffer",
		"fetch", "runahead_entry", "no_event", "adjacent"} {
		names = append(names, "core_warp_veto_"+v+"_total")
	}
	return names
}

func registryValues() map[string]int64 {
	got := make(map[string]int64)
	for _, m := range metrics.Default.Export() {
		got[m.Name] = m.Value
	}
	return got
}

// TestPerfbenchRegistryContract runs one single-core cell and one 2-core
// cluster cell, then checks that the registry exports every counter
// perfbench reads and that the simulated-cycle counter advanced across each.
func TestPerfbenchRegistryContract(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.Mode = core.ModeHybrid

	before := registryValues()
	core.New(cfg, workload.MustLoad("mcf")).Run(5_000)
	afterCore := registryValues()
	multicore.New(cfg, []*prog.Program{workload.MustLoad("mcf"), workload.MustLoad("libquantum")}).Run(2_000)
	afterMix := registryValues()

	for _, n := range perfbenchRegistryNames() {
		if _, ok := afterMix[n]; !ok {
			t.Errorf("metrics.Default has no %q", n)
		}
	}
	const cycles = "sim_cycles_total"
	if afterCore[cycles] <= before[cycles] {
		t.Errorf("%s did not advance over a core run: %d -> %d", cycles, before[cycles], afterCore[cycles])
	}
	if afterMix[cycles] <= afterCore[cycles] {
		t.Errorf("%s did not advance over a cluster run: %d -> %d", cycles, afterCore[cycles], afterMix[cycles])
	}
}

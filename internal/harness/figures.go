package harness

import (
	"fmt"

	"runaheadsim/internal/core"
	"runaheadsim/internal/stats"
	"runaheadsim/internal/workload"
)

// allNames returns the 29 benchmarks in Figure 1 order, filtered by the
// runner's subset option.
func (r *Runner) allNames() []string {
	return r.filter(workload.Names())
}

// mhNames returns the 13 medium+high intensity benchmarks, filtered by the
// runner's subset option.
func (r *Runner) mhNames() []string {
	var out []string
	for _, s := range workload.MediumHigh() {
		out = append(out, s.Name)
	}
	return r.filter(out)
}

func (r *Runner) filter(names []string) []string {
	if len(r.opts.Benchmarks) == 0 {
		return names
	}
	want := make(map[string]bool, len(r.opts.Benchmarks))
	for _, n := range r.opts.Benchmarks {
		want[n] = true
	}
	var out []string
	for _, n := range names {
		if want[n] {
			out = append(out, n)
		}
	}
	return out
}

// ipcDeltaPct is the figures' y-axis: percent IPC difference over the
// no-prefetching baseline.
func (r *Runner) ipcDeltaPct(bench string, rc RunConfig) float64 {
	base := r.Result(bench, Baseline)
	v := r.Result(bench, rc)
	return stats.PctDelta(v.IPC, base.IPC)
}

// gmeanDelta aggregates per-benchmark IPC ratios geometrically and reports
// the percent gain, the way the paper's GMean bars do.
func (r *Runner) gmeanDelta(benches []string, rc RunConfig) float64 {
	var ratios []float64
	for _, b := range benches {
		base := r.Result(b, Baseline)
		v := r.Result(b, rc)
		// Div, not /: a degenerate run (zero-cycle sampled window) must not
		// leak NaN/Inf through the geomean into tables and -json output.
		ratios = append(ratios, stats.Div(v.IPC, base.IPC))
	}
	return 100 * (stats.GeoMean(ratios) - 1)
}

// gmeanCell renders gmeanDelta as a table cell: "-" over an empty set (a
// benchmark subset that misses the figure's averaging set), where the
// geomean is undefined rather than -100%.
func (r *Runner) gmeanCell(benches []string, rc RunConfig) string {
	if len(benches) == 0 {
		return "-"
	}
	return pct(r.gmeanDelta(benches, rc))
}

// Table1 renders the simulated system configuration.
func Table1(r *Runner) Table {
	cfg := core.DefaultConfig()
	t := Table{ID: "table1", Title: "System configuration", Columns: []string{"Component", "Configuration"}}
	t.AddRow("Core", fmt.Sprintf("%d-wide issue, %d-entry ROB, %d-entry reservation station, hybrid branch predictor, 3.2 GHz",
		cfg.IssueWidth, cfg.ROBSize, cfg.RSSize))
	t.AddRow("Runahead buffer", fmt.Sprintf("%d-entry, 8-byte uops (256 bytes)", cfg.RunaheadBufferSize))
	t.AddRow("Runahead cache", fmt.Sprintf("%d bytes, %d-way, %dB lines", cfg.RACacheBytes, cfg.RACacheWays, cfg.RACacheLineBytes))
	t.AddRow("Chain cache", fmt.Sprintf("%d entries x %d uops (512 bytes)", cfg.ChainCacheEntries, cfg.MaxChainLength))
	t.AddRow("L1 caches", fmt.Sprintf("%dKB I + %dKB D, 64B lines, 2 ports, %d-cycle, 8-way, write-back",
		cfg.Mem.L1I.SizeBytes>>10, cfg.Mem.L1D.SizeBytes>>10, cfg.Mem.L1Latency))
	t.AddRow("Last level cache", fmt.Sprintf("%dMB, 8-way, 64B lines, %d-cycle, write-back, inclusive; %d-entry memory queue",
		cfg.Mem.LLC.SizeBytes>>20, cfg.Mem.LLCLatency, cfg.Mem.DRAM.QueueCap))
	t.AddRow("Prefetcher", "Stream: 32 streams, distance 32, degree 2, into LLC, FDP throttling")
	t.AddRow("DRAM", fmt.Sprintf("DDR3, %d channels x %d banks, %dKB rows, CAS 13.75ns, bank conflicts & queuing modeled, 800 MHz bus",
		cfg.Mem.DRAM.Channels, cfg.Mem.DRAM.BanksPerChannel, cfg.Mem.DRAM.RowBytes>>10))
	return t
}

// Table2 classifies the suite by measured MPKI (High >= 10, Medium > 2).
func Table2(r *Runner) Table {
	t := Table{ID: "table2", Title: "Workload classification by memory intensity",
		Columns: []string{"Benchmark", "MPKI", "Measured class", "Paper class"}}
	for _, name := range r.allNames() {
		res := r.Result(name, Baseline)
		class := "low"
		switch {
		case res.MPKI >= 10:
			class = "high"
		case res.MPKI > 2:
			class = "medium"
		}
		spec, _ := workload.SpecOf(name)
		t.AddRow(name, f1(res.MPKI), class, spec.Class.String())
	}
	return t
}

// Figure1 reports the percent of cycles stalled waiting for memory, plus
// IPC, for the whole suite on the no-prefetching baseline.
func Figure1(r *Runner) Table {
	t := Table{ID: "figure1", Title: "% of total cycles stalled on memory (baseline); IPC on top of each bar",
		Columns: []string{"Benchmark", "StallPct", "IPC"}}
	for _, name := range r.allNames() {
		res := r.Result(name, Baseline)
		t.AddRow(name, pct(res.MemStallPct), f2(res.IPC))
	}
	return t
}

// Figure2 reports the fraction of cache misses whose source data is
// available on chip (no DRAM-bound ancestor inside the window).
func Figure2(r *Runner) Table {
	t := Table{ID: "figure2", Title: "% of cache misses with source data available on-chip",
		Columns: []string{"Benchmark", "OnChipPct", "Misses"}}
	for _, name := range r.allNames() {
		res := r.Result(name, Baseline.WithDepTrack())
		st := res.Stats
		p := stats.Pct(st.MissSourcesOnChip, st.DemandDRAMMisses)
		if st.DemandDRAMMisses == 0 {
			t.AddRow(name, "-", "0")
			continue
		}
		t.AddRow(name, pct(p), fmt.Sprint(st.DemandDRAMMisses))
	}
	return t
}

// Figure3 reports the fraction of operations executed during traditional
// runahead that lie on some miss dependence chain.
func Figure3(r *Runner) Table {
	t := Table{ID: "figure3", Title: "% of runahead operations on a miss dependence chain (traditional runahead)",
		Columns: []string{"Benchmark", "ChainOpsPct", "RunaheadUops"}}
	for _, name := range r.allNames() {
		st := r.Result(name, Runahead.WithDepTrack()).Stats
		if st.RATotalUops == 0 {
			t.AddRow(name, "-", "0")
			continue
		}
		t.AddRow(name, pct(stats.Pct(st.RAChainUops, st.RATotalUops)), fmt.Sprint(st.RATotalUops))
	}
	return t
}

// Figure4 reports how often miss dependence chains repeat within a runahead
// interval.
func Figure4(r *Runner) Table {
	t := Table{ID: "figure4", Title: "Repeated vs unique miss dependence chains per runahead interval",
		Columns: []string{"Benchmark", "RepeatedPct", "UniquePct", "Chains"}}
	for _, name := range r.allNames() {
		st := r.Result(name, Runahead.WithDepTrack()).Stats
		total := st.RAChainsUnique + st.RAChainsRepeated
		if total == 0 {
			t.AddRow(name, "-", "-", "0")
			continue
		}
		t.AddRow(name,
			pct(stats.Pct(st.RAChainsRepeated, total)),
			pct(stats.Pct(st.RAChainsUnique, total)),
			fmt.Sprint(total))
	}
	return t
}

// Figure5 reports the mean dependence chain length (uops) of misses
// generated during traditional runahead.
func Figure5(r *Runner) Table {
	t := Table{ID: "figure5", Title: "Mean dependence chain length of runahead misses (uops)",
		Columns: []string{"Benchmark", "ChainLen", "Chains"}}
	for _, name := range r.allNames() {
		st := r.Result(name, Runahead.WithDepTrack()).Stats
		if st.ChainLengths.Count == 0 {
			t.AddRow(name, "-", "0")
			continue
		}
		t.AddRow(name, f1(st.ChainLengths.Mean()), fmt.Sprint(st.ChainLengths.Count))
	}
	return t
}

// Figure9 reports percent IPC difference over the no-PF baseline for the
// four runahead systems, over the full suite, with the medium+high GMean.
func Figure9(r *Runner) Table {
	configs := []RunConfig{Runahead, Buffer, BufferCC, Hybrid}
	t := Table{ID: "figure9", Title: "% IPC difference over no-prefetching baseline",
		Columns: []string{"Benchmark", "RA", "RB", "RB+CC", "Hybrid"}}
	for _, name := range r.allNames() {
		row := []string{name}
		for _, rc := range configs {
			row = append(row, pct(r.ipcDeltaPct(name, rc)))
		}
		t.AddRow(row...)
	}
	row := []string{"GMean(M+H)"}
	for _, rc := range configs {
		row = append(row, r.gmeanCell(r.mhNames(), rc))
	}
	t.AddRow(row...)
	t.Notes = append(t.Notes, "paper GMean(M+H): RA +14.3%, RB +14.4%, RB+CC +17.2%, Hybrid +21.0%")
	return t
}

// Figure10 reports the LLC misses generated per runahead interval (the MLP
// the mechanism buys), with and without prefetching.
func Figure10(r *Runner) Table {
	configs := []RunConfig{Runahead, BufferCC, Runahead.WithPF(), BufferCC.WithPF()}
	t := Table{ID: "figure10", Title: "Cache misses generated per runahead interval",
		Columns: []string{"Benchmark", "RA", "RB", "RA+PF", "RB+PF"}}
	means := make([][]float64, len(configs))
	for _, name := range r.mhNames() {
		row := []string{name}
		for i, rc := range configs {
			st := r.Result(name, rc).Stats
			v := stats.Ratio(st.RunaheadMissesLLC, st.RunaheadIntervals)
			means[i] = append(means[i], v)
			row = append(row, f1(v))
		}
		t.AddRow(row...)
	}
	row := []string{"Mean"}
	for i := range configs {
		row = append(row, f1(stats.Mean(means[i])))
	}
	t.AddRow(row...)
	t.Notes = append(t.Notes, "paper: the buffer generates ~2x the misses of traditional runahead")
	return t
}

// Figure11 reports the percent of total cycles spent in runahead-buffer
// mode (front end clock-gated).
func Figure11(r *Runner) Table {
	t := Table{ID: "figure11", Title: "% of total cycles in runahead buffer mode (RB+CC)",
		Columns: []string{"Benchmark", "BufferCyclesPct"}}
	var vals []float64
	for _, name := range r.mhNames() {
		st := r.Result(name, BufferCC).Stats
		v := 100 * stats.Div(float64(st.RunaheadBufferCycles), float64(st.Cycles))
		vals = append(vals, v)
		t.AddRow(name, pct(v))
	}
	t.AddRow("Mean", pct(stats.Mean(vals)))
	t.Notes = append(t.Notes, "paper mean: 47%")
	return t
}

// Figure12 reports the chain cache hit rate.
func Figure12(r *Runner) Table {
	t := Table{ID: "figure12", Title: "Chain cache hit rate (RB+CC)",
		Columns: []string{"Benchmark", "HitRate"}}
	var vals []float64
	for _, name := range r.mhNames() {
		st := r.Result(name, BufferCC).Stats
		v := stats.Pct(st.ChainCacheHits, st.ChainCacheHits+st.ChainCacheMisses)
		vals = append(vals, v)
		t.AddRow(name, pct(v))
	}
	t.AddRow("Mean", pct(stats.Mean(vals)))
	return t
}

// Figure13 reports how often a chain cache hit exactly matches the chain
// that would be generated from the ROB.
func Figure13(r *Runner) Table {
	t := Table{ID: "figure13", Title: "% of chain cache hits exactly matching the ROB chain (RB+CC)",
		Columns: []string{"Benchmark", "ExactPct", "HitsChecked"}}
	var vals []float64
	for _, name := range r.mhNames() {
		st := r.Result(name, BufferCC).Stats
		if st.ChainCacheChecked == 0 {
			t.AddRow(name, "-", "0")
			continue
		}
		v := stats.Pct(st.ChainCacheExact, st.ChainCacheChecked)
		vals = append(vals, v)
		t.AddRow(name, pct(v), fmt.Sprint(st.ChainCacheChecked))
	}
	t.AddRow("Mean", pct(stats.Mean(vals)), "")
	t.Notes = append(t.Notes, "paper mean: 53% exact matches")
	return t
}

// Figure14 reports the fraction of runahead cycles the hybrid policy spends
// in buffer mode.
func Figure14(r *Runner) Table {
	t := Table{ID: "figure14", Title: "% of runahead cycles using the buffer under the hybrid policy",
		Columns: []string{"Benchmark", "BufferPct"}}
	var vals []float64
	for _, name := range r.mhNames() {
		st := r.Result(name, Hybrid).Stats
		if st.RunaheadCycles == 0 {
			t.AddRow(name, "-")
			continue
		}
		v := 100 * stats.Div(float64(st.RunaheadBufferCycles), float64(st.RunaheadCycles))
		vals = append(vals, v)
		t.AddRow(name, pct(v))
	}
	t.AddRow("Mean", pct(stats.Mean(vals)))
	t.Notes = append(t.Notes, "paper mean: 71% of runahead time in buffer mode")
	return t
}

// Figure15 reports IPC gains with the stream prefetcher, still normalized
// to the no-prefetching baseline.
func Figure15(r *Runner) Table {
	configs := []RunConfig{Baseline.WithPF(), Runahead.WithPF(), Buffer.WithPF(), BufferCC.WithPF(), Hybrid.WithPF()}
	t := Table{ID: "figure15", Title: "% IPC difference over no-PF baseline, with stream prefetching",
		Columns: []string{"Benchmark", "PF", "RA+PF", "RB+PF", "RB+CC+PF", "Hybrid+PF"}}
	for _, name := range r.mhNames() {
		row := []string{name}
		for _, rc := range configs {
			row = append(row, pct(r.ipcDeltaPct(name, rc)))
		}
		t.AddRow(row...)
	}
	row := []string{"GMean"}
	for _, rc := range configs {
		row = append(row, r.gmeanCell(r.mhNames(), rc))
	}
	t.AddRow(row...)
	t.Notes = append(t.Notes, "paper GMean: PF +37.5%, RA+PF +48.3%, RB+PF +47.1%, RB+CC+PF +48.2%, Hybrid+PF +51.5%")
	return t
}

// Figure16 reports extra DRAM requests versus the no-PF baseline.
func Figure16(r *Runner) Table {
	configs := []RunConfig{Runahead, BufferCC, Hybrid, Baseline.WithPF()}
	t := Table{ID: "figure16", Title: "% additional DRAM requests vs no-prefetching baseline",
		Columns: []string{"Benchmark", "RA", "RB+CC", "Hybrid", "PF"}}
	sums := make([][]float64, len(configs))
	for _, name := range r.mhNames() {
		base := r.Result(name, Baseline)
		row := []string{name}
		for i, rc := range configs {
			v := r.Result(name, rc)
			d := stats.PctDelta(float64(v.DRAMRequests), float64(base.DRAMRequests))
			sums[i] = append(sums[i], d)
			row = append(row, pct(d))
		}
		t.AddRow(row...)
	}
	row := []string{"Mean"}
	for i := range configs {
		row = append(row, pct(stats.Mean(sums[i])))
	}
	t.AddRow(row...)
	t.Notes = append(t.Notes, "paper means: RA +4%, RB +12%, Hybrid +9%, PF +38%")
	return t
}

// Figure17 reports normalized energy without prefetching.
func Figure17(r *Runner) Table {
	configs := []RunConfig{Runahead, RunaheadEnh, Buffer, BufferCC, Hybrid}
	t := Table{ID: "figure17", Title: "% energy difference vs no-PF baseline (no prefetching)",
		Columns: []string{"Benchmark", "RA", "RA-Enh", "RB", "RB+CC", "Hybrid"}}
	r.energyRows(&t, configs)
	t.Notes = append(t.Notes, "paper GMean: RA +44%, RA-Enh +9%, RB -4.4%, RB+CC -6.7%, Hybrid -2.3%")
	return t
}

// Figure18 reports normalized energy with prefetching (still vs the no-PF
// baseline).
func Figure18(r *Runner) Table {
	configs := []RunConfig{Baseline.WithPF(), Runahead.WithPF(), RunaheadEnh.WithPF(), Buffer.WithPF(), BufferCC.WithPF(), Hybrid.WithPF()}
	t := Table{ID: "figure18", Title: "% energy difference vs no-PF baseline (with prefetching)",
		Columns: []string{"Benchmark", "PF", "RA+PF", "RA-Enh+PF", "RB+PF", "RB+CC+PF", "Hybrid+PF"}}
	r.energyRows(&t, configs)
	t.Notes = append(t.Notes, "paper GMean: PF -19.5%, RA+PF -1.7%, RA-Enh+PF -15.4%, RB+PF -20.8%, RB+CC+PF -22.5%, Hybrid+PF -19.9%")
	return t
}

func (r *Runner) energyRows(t *Table, configs []RunConfig) {
	sums := make([][]float64, len(configs))
	for _, name := range r.mhNames() {
		base := r.Result(name, Baseline)
		row := []string{name}
		for i, rc := range configs {
			v := r.Result(name, rc)
			d := stats.PctDelta(v.Energy.Total(), base.Energy.Total())
			sums[i] = append(sums[i], d)
			row = append(row, pct(d))
		}
		t.AddRow(row...)
	}
	row := []string{"Mean"}
	for i := range configs {
		row = append(row, pct(stats.Mean(sums[i])))
	}
	t.AddRow(row...)
}

// Experiment names one regenerable artifact.
type Experiment struct {
	ID    string
	Build func(*Runner) Table
}

// Experiments lists every table and figure in paper order, then the claim
// verdicts and the phase-sampling confidence intervals.
func Experiments() []Experiment {
	return []Experiment{
		{"table1", Table1},
		{"table2", Table2},
		{"figure1", Figure1},
		{"figure2", Figure2},
		{"figure3", Figure3},
		{"figure4", Figure4},
		{"figure5", Figure5},
		{"figure9", Figure9},
		{"figure10", Figure10},
		{"figure11", Figure11},
		{"figure12", Figure12},
		{"figure13", Figure13},
		{"figure14", Figure14},
		{"figure15", Figure15},
		{"figure16", Figure16},
		{"figure17", Figure17},
		{"figure18", Figure18},
		{"sens-buffer", SensBufferSize},
		{"sens-chaincache", SensChainCache},
		{"ext-prefetchers", ExtPrefetchers},
		{"ext-adaptive", ExtAdaptive},
		{"cpi-stack", CPIStack},
		{"report", Report},
		{"sampling", SamplingTable},
	}
}

// Package runaheadsim is a cycle-level CPU simulator reproducing "Filtered
// Runahead Execution with a Runahead Buffer" (Hashemi & Patt, MICRO-48,
// 2015).
//
// The simulated machine is the paper's Table 1 system: a 4-wide out-of-order
// core with a 192-entry reorder buffer, a 32KB+32KB/1MB write-back cache
// hierarchy, a DDR3 memory system with bank conflicts and FR-FCFS
// scheduling, a POWER4-style stream prefetcher with feedback-directed
// throttling, and six runahead schemes: none, traditional runahead, the
// runahead buffer, the runahead buffer with a chain cache, the hybrid policy
// of Figure 8, and a feedback-directed adaptive hybrid (an extension beyond
// the paper).
//
// The quickest way in:
//
//	res, err := runaheadsim.Run(runaheadsim.Config{
//	    Benchmark: "mcf",
//	    Mode:      runaheadsim.ModeHybrid,
//	})
//	fmt.Printf("IPC %.2f (%.1f%% over baseline)\n", res.IPC, res.IPCDeltaPct)
//
// Workloads are synthetic stand-ins for SPEC CPU2006 (the paper's suite is
// not redistributable); Benchmarks lists all 29. Every table and figure in
// the paper's evaluation can be regenerated with RunExperiment or the
// cmd/runahead-sweep tool; see DESIGN.md and EXPERIMENTS.md.
package runaheadsim

import (
	"fmt"
	"sort"
	"strings"

	"runaheadsim/internal/core"
	"runaheadsim/internal/energy"
	"runaheadsim/internal/harness"
	"runaheadsim/internal/stats"
	"runaheadsim/internal/workload"
)

// Mode selects the runahead scheme.
type Mode string

// The Section 6 systems, plus the adaptive-hybrid extension.
const (
	ModeBaseline         Mode = "baseline"
	ModeRunahead         Mode = "runahead"
	ModeRunaheadBuffer   Mode = "runahead-buffer"
	ModeRunaheadBufferCC Mode = "runahead-buffer+cc"
	ModeHybrid           Mode = "hybrid"
	ModeAdaptiveHybrid   Mode = "adaptive-hybrid"
)

// Modes lists all modes.
func Modes() []Mode {
	return []Mode{ModeBaseline, ModeRunahead, ModeRunaheadBuffer, ModeRunaheadBufferCC, ModeHybrid, ModeAdaptiveHybrid}
}

// CoreMode resolves m to the simulator's runahead mode; the empty Mode is
// the baseline.
func (m Mode) CoreMode() (core.Mode, error) {
	switch m {
	case ModeBaseline, "":
		return core.ModeNone, nil
	case ModeRunahead:
		return core.ModeTraditional, nil
	case ModeRunaheadBuffer:
		return core.ModeBuffer, nil
	case ModeRunaheadBufferCC:
		return core.ModeBufferCC, nil
	case ModeHybrid:
		return core.ModeHybrid, nil
	case ModeAdaptiveHybrid:
		return core.ModeAdaptive, nil
	default:
		return 0, fmt.Errorf("runaheadsim: unknown mode %q (have %v)", m, Modes())
	}
}

// Config selects one simulation.
type Config struct {
	// Benchmark is one of Benchmarks(); see the workload documentation for
	// what each synthetic kernel models.
	Benchmark string
	// Mode selects the runahead scheme (default baseline).
	Mode Mode
	// Enhancements applies the ISCA'05 runahead-efficiency policies (used by
	// the paper's "Runahead Enhancements" and Hybrid systems).
	Enhancements bool
	// Prefetcher enables the stream prefetcher.
	Prefetcher bool
	// DepTrack enables the dependence-walk instrumentation behind Figures
	// 2-5 (slower to simulate, no effect on timing).
	DepTrack bool
	// WarmupUops run before measurement begins (0 = automatic).
	WarmupUops uint64
	// MeasureUops is the measured instruction budget (0 = 150k).
	MeasureUops uint64
	// TimelineInterval, when positive, samples IPC/occupancy/mode every N
	// cycles of the measured region; the samples land in Result.Timeline.
	TimelineInterval int64
	// TimelineSamples bounds the retained timeline ring (0 = 4096). When the
	// run outlives the ring the oldest samples are evicted.
	TimelineSamples int
	// Check attaches the simcheck runtime sanitizer: a lockstep oracle
	// validating every commit against the functional interpreter, plus
	// per-cycle structural invariants. A violation panics with the
	// offending uop, cycle, and CPI-stack context. See DESIGN.md
	// "Correctness tooling".
	Check bool
	// WatchdogCycles overrides the core's deadlock watchdog: positive sets
	// the no-progress cycle budget, negative disables it, 0 keeps the
	// default.
	WatchdogCycles int64
	// FlightDumpDir, when non-empty, is where a dying run writes its flight
	// recorder (the ring of recent trace events every core keeps) as JSONL
	// before the panic propagates. See DESIGN.md "Live telemetry & flight
	// recorder".
	FlightDumpDir string
	// Monitor, when non-nil, receives live phase/progress callbacks from
	// the run (telemetry.Tracker satisfies this; so does any equivalent
	// implementation). Must be safe for concurrent use.
	Monitor Monitor
}

// Monitor receives live progress callbacks from simulated runs; it mirrors
// the harness monitor interface so callers outside the module can plug in a
// telemetry tracker (or their own implementation) without importing internal
// packages. Implementations must be safe for concurrent use.
type Monitor interface {
	RunStart(bench, config string)
	RunDone(bench, config string)
	Phase(bench, config string, interval int, phase string, total uint64)
	Progress(bench, config string, interval int, done uint64)
	Done(bench, config string, interval int)
}

// Result summarizes a simulation.
type Result struct {
	Benchmark string
	Mode      Mode

	// Headline metrics.
	IPC         float64
	IPCDeltaPct float64 // vs. the no-prefetching baseline of the same benchmark
	Cycles      int64
	Committed   uint64
	MPKI        float64
	MemStallPct float64

	// Runahead behaviour.
	RunaheadIntervals    uint64
	MissesPerInterval    float64
	RunaheadBufferCycles int64
	ChainCacheHitRate    float64

	// Energy (synthetic microjoules; see internal/energy).
	EnergyUJ       float64
	EnergyDeltaPct float64 // vs. the no-prefetching baseline
	// EnergyBreakdown carries the per-component split behind EnergyUJ.
	EnergyBreakdown energy.Breakdown

	// DRAM traffic.
	DRAMRequests    uint64
	TrafficDeltaPct float64

	// Chains holds Figure 7-style renderings of the dependence chains left
	// in the chain cache when the run ended (buffer modes only).
	Chains []string

	// Timeline holds the measured region's interval samples when
	// Config.TimelineInterval was set (nil otherwise). Use its WriteCSV /
	// WriteJSON methods to export.
	Timeline *stats.Timeline

	// Stats exposes every raw counter for advanced use.
	Stats *core.Stats
}

// Benchmarks returns the 29 workload names in the paper's Figure 1 order
// (lowest to highest memory intensity).
func Benchmarks() []string { return workload.Names() }

// MediumHighBenchmarks returns the 13 medium and high memory-intensity
// workloads most of the evaluation averages over (Table 2).
func MediumHighBenchmarks() []string {
	var out []string
	for _, s := range workload.MediumHigh() {
		out = append(out, s.Name)
	}
	return out
}

// Run simulates one benchmark under one configuration and also runs the
// matching no-prefetching baseline so the Result can report deltas.
func Run(cfg Config) (Result, error) {
	cm, err := cfg.Mode.CoreMode()
	if err != nil {
		return Result{}, err
	}
	if _, ok := workload.SpecOf(cfg.Benchmark); !ok {
		names := Benchmarks()
		sort.Strings(names)
		return Result{}, fmt.Errorf("runaheadsim: unknown benchmark %q (have %s)",
			cfg.Benchmark, strings.Join(names, ", "))
	}
	opts := harness.Options{
		MeasureUops:      cfg.MeasureUops,
		WarmupUops:       cfg.WarmupUops,
		TimelineInterval: cfg.TimelineInterval,
		TimelineSamples:  cfg.TimelineSamples,
		Check:            cfg.Check,
		WatchdogCycles:   cfg.WatchdogCycles,
		FlightDumpDir:    cfg.FlightDumpDir,
	}
	if cfg.Monitor != nil {
		opts.Monitor = cfg.Monitor
	}
	r := harness.NewRunner(opts)
	rc := harness.RunConfig{Mode: cm, Enhancements: cfg.Enhancements, Prefetch: cfg.Prefetcher, DepTrack: cfg.DepTrack}
	res := r.Result(cfg.Benchmark, rc)
	base := res
	if rc != harness.Baseline {
		base = r.Result(cfg.Benchmark, harness.Baseline)
	}
	st := res.Stats
	out := Result{
		Benchmark:            cfg.Benchmark,
		Mode:                 cfg.Mode,
		IPC:                  res.IPC,
		IPCDeltaPct:          100 * (res.IPC/base.IPC - 1),
		Cycles:               st.Cycles,
		Committed:            st.Committed,
		MPKI:                 res.MPKI,
		MemStallPct:          res.MemStallPct,
		RunaheadIntervals:    st.RunaheadIntervals,
		RunaheadBufferCycles: st.RunaheadBufferCycles,
		EnergyUJ:             res.Energy.Total(),
		EnergyDeltaPct:       100 * (res.Energy.Total()/base.Energy.Total() - 1),
		EnergyBreakdown:      res.Energy,
		DRAMRequests:         res.DRAMRequests,
		TrafficDeltaPct:      100 * (float64(res.DRAMRequests)/float64(base.DRAMRequests) - 1),
		Chains:               res.Chains,
		Timeline:             res.Timeline,
		Stats:                st,
	}
	if st.RunaheadIntervals > 0 {
		out.MissesPerInterval = float64(st.RunaheadMissesLLC) / float64(st.RunaheadIntervals)
	}
	if hm := st.ChainCacheHits + st.ChainCacheMisses; hm > 0 {
		out.ChainCacheHitRate = float64(st.ChainCacheHits) / float64(hm)
	}
	if out.Mode == "" {
		out.Mode = ModeBaseline
	}
	return out, nil
}

// ExperimentIDs lists every regenerable paper artifact, in paper order,
// then the claim report and the sampling confidence intervals.
func ExperimentIDs() []string {
	var out []string
	for _, e := range harness.Experiments() {
		out = append(out, e.ID)
	}
	return out
}

// RunExperiment regenerates one table or figure ("table1", "figure9",
// "report", ...) and returns it rendered as text. measureUops of 0 selects the default
// budget. Runs are not shared across calls; use cmd/runahead-sweep for a
// full shared-cache sweep.
func RunExperiment(id string, measureUops uint64) (string, error) {
	for _, e := range harness.Experiments() {
		if e.ID == id {
			r := harness.NewRunner(harness.Options{MeasureUops: measureUops})
			t := e.Build(r)
			var sb strings.Builder
			t.Render(&sb)
			return sb.String(), nil
		}
	}
	return "", fmt.Errorf("runaheadsim: unknown experiment %q (have %s)",
		id, strings.Join(ExperimentIDs(), ", "))
}

// Package harness regenerates every table and figure of the paper's
// evaluation: it runs (benchmark, configuration) pairs on the simulator,
// memoizes the results, and formats them as text tables matching the rows
// and series the paper reports. cmd/runahead-sweep and the repository's
// bench_test.go are thin wrappers around this package.
package harness

import (
	"fmt"
	"sync"

	"runaheadsim/internal/core"
	"runaheadsim/internal/energy"
	"runaheadsim/internal/phases"
	"runaheadsim/internal/stats"
	"runaheadsim/internal/workload"
)

// RunConfig selects one simulated system (one bar color in the figures).
type RunConfig struct {
	Mode         core.Mode
	Enhancements bool
	Prefetch     bool
	DepTrack     bool

	// Sensitivity overrides (0 = Table 1 value). MaxChain sets both the
	// runahead buffer size and the chain-length cap; CCEntries sets the
	// chain cache entry count.
	MaxChain  int
	CCEntries int

	// PFKind selects the prefetch engine when Prefetch is set: "" or
	// "stream" for the paper's stream prefetcher, "delta" for the
	// region-delta (stride) alternative.
	PFKind string
}

// The systems evaluated in Section 6.
var (
	Baseline    = RunConfig{Mode: core.ModeNone}
	Runahead    = RunConfig{Mode: core.ModeTraditional}
	RunaheadEnh = RunConfig{Mode: core.ModeTraditional, Enhancements: true}
	Buffer      = RunConfig{Mode: core.ModeBuffer}
	BufferCC    = RunConfig{Mode: core.ModeBufferCC}
	Hybrid      = RunConfig{Mode: core.ModeHybrid, Enhancements: true}
)

// WithPF returns the configuration with the stream prefetcher enabled.
func (rc RunConfig) WithPF() RunConfig { rc.Prefetch = true; return rc }

// WithDepTrack returns the configuration with Figure 2-5 instrumentation.
func (rc RunConfig) WithDepTrack() RunConfig { rc.DepTrack = true; return rc }

// Label names the configuration the way the figures do.
func (rc RunConfig) Label() string {
	var s string
	switch {
	case rc.Mode == core.ModeNone && rc.Prefetch:
		return "PF"
	case rc.Mode == core.ModeNone:
		return "Base"
	case rc.Mode == core.ModeTraditional && rc.Enhancements:
		s = "RA-Enh"
	case rc.Mode == core.ModeTraditional:
		s = "RA"
	case rc.Mode == core.ModeBuffer:
		s = "RB"
	case rc.Mode == core.ModeBufferCC:
		s = "RB+CC"
	default:
		s = "Hybrid"
	}
	if rc.Prefetch {
		s += "+PF"
	}
	return s
}

// Result summarizes one (benchmark, configuration) run.
type Result struct {
	Bench  string
	Config RunConfig

	Stats  *core.Stats
	Energy energy.Breakdown

	// Timeline holds the run's interval samples when the runner's
	// TimelineInterval option is set (nil otherwise).
	Timeline *stats.Timeline

	IPC          float64
	MPKI         float64
	MemStallPct  float64
	DRAMRequests uint64

	// Chains holds Figure 7-style renderings of the dependence chains left
	// in the chain cache at the end of the run (at most two).
	Chains []string

	// Sampling describes how this result was sampled (nil for full-detail
	// runs): the mode, the detailed-uop cost, and — in phase mode — the
	// phase structure and per-metric confidence intervals.
	Sampling *SamplingInfo

	// Provenance records how this result was produced. Every run is a
	// simulator run (full-detail or sampled): ProvenanceDetailed.
	Provenance string
}

// Options tunes harness runs. MeasureUops trades fidelity for speed; the
// paper simulated 50M-instruction SimPoints. The synthetic kernels are
// phase-free, but not converged at the 150k default: from 150k to 1M
// measured uops the claim report's IPC claims move by up to 1.4 points and
// its energy claims by 3 to 4.
type Options struct {
	MeasureUops uint64
	WarmupUops  uint64 // 0 = automatic (longer for small-footprint benchmarks)
	// Benchmarks restricts figures to a subset (nil = the figure's full
	// set). Used by the scaled-down `go test -bench` harness.
	Benchmarks []string
	// Progress is invoked once per simulated run. During Prewarm it is
	// called from worker goroutines concurrently; it must be safe for that.
	Progress func(bench, config string)

	// Monitor, when non-nil, receives live progress from every simulated
	// run: run boundaries, phase transitions, and periodic committed-uop
	// updates (every progressChunk uops, via chunked Run calls that are
	// bit-identical to one call). Calls arrive from worker goroutines
	// concurrently. telemetry.Tracker implements this interface.
	Monitor Monitor

	// Sample, when non-nil, replaces each run's one detailed window (from
	// program entry: the run's warmup, then MeasureUops measured) with
	// sampled windows: a functional fast-forward drops architectural
	// checkpoints, detailed windows are simulated from them (warmup +
	// measure each), and their statistics are merged. Timelines are
	// unavailable in this mode; Check runs the oracle in every window.
	Sample *SampleOptions

	// TimelineInterval, when positive, attaches an interval sampler to every
	// full-detail measured run; each Result then carries a Timeline.
	// TimelineSamples bounds the retained ring (0 = 4096).
	TimelineInterval int64
	TimelineSamples  int

	// Check attaches the simcheck sanitizer (lockstep architectural oracle
	// plus per-cycle structural invariants) to every run; a violation
	// panics with full context. Binaries built with the simcheck build tag
	// force this on for all runs.
	Check bool

	// FlightDumpDir, when non-empty, is where a dying run writes its flight
	// recorder — the core's ring of recent trace events — as JSONL before
	// the panic propagates. Empty disables dumping.
	FlightDumpDir string

	// WatchdogCycles, when nonzero, overrides the core's deadlock watchdog
	// for every run: positive sets the no-progress cycle budget, negative
	// disables the watchdog entirely. Zero keeps the Table 1 default.
	WatchdogCycles int64
}

// DefaultOptions is the sweep default.
func DefaultOptions() Options {
	return Options{MeasureUops: 150_000}
}

// Warmup returns the warmup micro-ops a run of a benchmark in class uses:
// WarmupUops when set, else the class default.
func (o Options) Warmup(class workload.Class) uint64 {
	if o.WarmupUops > 0 {
		return o.WarmupUops
	}
	if class == workload.Low {
		// Small footprints must wrap before steady-state MPKI emerges.
		return 500_000
	}
	return 100_000
}

// Runner memoizes simulation runs across figures, since most figures share
// configurations. It is safe for concurrent use: parallel Result calls for
// distinct pairs simulate concurrently, while calls for the same pair share
// one run (single-flight).
type Runner struct {
	opts Options

	mu       sync.Mutex
	cache    map[string]*entry
	mixCache map[string]*mixEntry
	profiles map[string]*profEntry

	// profileWallNanos accumulates wall time spent in BBV phase profiling,
	// read via ProfileWallSec. Accessed atomically.
	profileWallNanos int64

	// Planning mode (see Plan): Result records the requested pair and
	// returns a placeholder instead of simulating.
	planning bool
	planSeen map[string]bool
	planned  []PlannedRun
}

// entry is one memoized run; once gates the single simulation.
type entry struct {
	once sync.Once
	res  *Result
}

// profEntry holds one bench's memoized interpreter-speed passes, each
// single-flight like a detailed run: the phase plan (planOnce) and the
// checkpoint walks. Neither depends on the configuration, so every
// configuration of a bench shares them.
type profEntry struct {
	planOnce sync.Once
	plan     *phases.Plan
	planErr  error

	// pending holds the keys of the bench's planned pairs that have not run
	// yet. While any remain, their detailed runs share one checkpoint walk
	// per warm geometry (walks); the last one to run releases the walks.
	// Both fields are guarded by Runner.mu.
	pending map[string]bool
	walks   map[walkKey]*ckWalk
}

// profile returns the bench's profile entry, creating it on first use.
func (r *Runner) profile(bench string) *profEntry {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.profileLocked(bench)
}

func (r *Runner) profileLocked(bench string) *profEntry {
	e := r.profiles[bench]
	if e == nil {
		e = &profEntry{}
		r.profiles[bench] = e
	}
	return e
}

// checkpointWalk returns the walk a detailed run of pair k takes its
// checkpoints from. A planned pair that has not run yet shares its bench's
// walk for the warm geometry of cfg, creating it on first use; any other run
// walks privately.
func (r *Runner) checkpointWalk(bench, k string, cfg core.Config, plan []checkpoint) *ckWalk {
	r.mu.Lock()
	defer r.mu.Unlock()
	e := r.profiles[bench]
	if e == nil || !e.pending[k] {
		return newWalk(plan)
	}
	wk := walkKey{cfg.Mem.L1I, cfg.Mem.L1D, cfg.Mem.LLC, cfg.BPred}
	w := e.walks[wk]
	if w == nil {
		w = newWalk(plan)
		if e.walks == nil {
			e.walks = make(map[walkKey]*ckWalk)
		}
		e.walks[wk] = w
	}
	return w
}

// ran marks pair k as run and releases the bench's checkpoint walks once no
// planned pair of the bench is left to run.
func (r *Runner) ran(bench, k string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	e := r.profiles[bench]
	if e == nil || !e.pending[k] {
		return
	}
	delete(e.pending, k)
	if len(e.pending) == 0 {
		e.walks = nil
	}
}

// PlannedRun names one (benchmark, configuration) pair a set of experiments
// will request, in first-request order.
type PlannedRun struct {
	Bench  string
	Config RunConfig
}

// NewRunner returns a Runner with the given options.
func NewRunner(opts Options) *Runner {
	if opts.MeasureUops == 0 {
		opts.MeasureUops = DefaultOptions().MeasureUops
	}
	return &Runner{
		opts:     opts,
		cache:    make(map[string]*entry),
		mixCache: make(map[string]*mixEntry),
		profiles: make(map[string]*profEntry),
	}
}

// key builds the memo-cache key for one (benchmark, configuration) pair.
// Every field is rendered explicitly — the mode as its numeric value, bools
// as %t — so two distinct configurations can never collide through a shared
// String() rendering (e.g. out-of-range modes both printing "unknown").
func key(bench string, rc RunConfig) string {
	return fmt.Sprintf("%s|%d|%t|%t|%t|%d|%d|%s",
		bench, uint8(rc.Mode), rc.Enhancements, rc.Prefetch, rc.DepTrack, rc.MaxChain, rc.CCEntries, rc.PFKind)
}

// Result runs (or returns the cached run of) one benchmark under one
// configuration.
func (r *Runner) Result(bench string, rc RunConfig) *Result {
	k := key(bench, rc)
	r.mu.Lock()
	if r.planning {
		if !r.planSeen[k] {
			r.planSeen[k] = true
			r.planned = append(r.planned, PlannedRun{Bench: bench, Config: rc})
		}
		r.mu.Unlock()
		return placeholderResult(bench, rc)
	}
	e := r.cache[k]
	if e == nil {
		e = &entry{}
		r.cache[k] = e
	}
	r.mu.Unlock()
	e.once.Do(func() {
		e.res = r.run(bench, rc)
		r.ran(bench, k)
	})
	return e.res
}

// Plan invokes fn with the runner in planning mode: every Result call inside
// records its (benchmark, configuration) pair and returns a placeholder
// without simulating. It returns the distinct pairs in first-request order —
// the exact work list a later Prewarm needs. Placeholder-derived output must
// be discarded; fn is for discovering the run set, not for rendering. The
// planned pairs that have not run yet share one checkpoint walk per bench
// until the last of them has run.
func (r *Runner) Plan(fn func(*Runner)) []PlannedRun {
	r.mu.Lock()
	r.planning = true
	r.planSeen = make(map[string]bool)
	r.planned = nil
	r.mu.Unlock()
	fn(r)
	r.mu.Lock()
	runs := r.planned
	for _, pr := range runs {
		k := key(pr.Bench, pr.Config)
		if r.cache[k] != nil {
			continue
		}
		e := r.profileLocked(pr.Bench)
		if e.pending == nil {
			e.pending = make(map[string]bool)
		}
		e.pending[k] = true
	}
	r.planning = false
	r.planSeen = nil
	r.planned = nil
	r.mu.Unlock()
	return runs
}

// Prewarm simulates the given runs on a pool of `workers` goroutines,
// filling the memo cache so subsequent Result calls return instantly. Since
// results are memoized by pair, a prewarmed sweep renders byte-identically
// to a sequential one — parallelism changes only who computes each entry.
func (r *Runner) Prewarm(runs []PlannedRun, workers int) {
	if workers < 1 {
		workers = 1
	}
	if workers > len(runs) {
		workers = len(runs)
	}
	ch := make(chan PlannedRun)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for pr := range ch {
				r.Result(pr.Bench, pr.Config)
			}
		}()
	}
	for _, pr := range runs {
		ch <- pr
	}
	close(ch)
	wg.Wait()
}

// placeholderResult stands in for a real run during planning. Histograms are
// allocated and denominators nonzero so figure builders that dereference or
// divide don't trip; everything derived from it is discarded.
func placeholderResult(bench string, rc RunConfig) *Result {
	return &Result{Bench: bench, Config: rc, Stats: core.NewPlaceholderStats(), IPC: 1}
}

// CoreConfig translates a RunConfig into a full core configuration with the
// options' watchdog override applied. Every detailed run builds its core
// from it.
func (o Options) CoreConfig(rc RunConfig) core.Config {
	cfg := configFor(rc)
	if wd := o.WatchdogCycles; wd > 0 {
		cfg.WatchdogCycles = wd
	} else if wd < 0 {
		cfg.WatchdogCycles = 0
	}
	return cfg
}

// configFor translates a RunConfig into a full core configuration.
func configFor(rc RunConfig) core.Config {
	cfg := core.DefaultConfig()
	cfg.Mode = rc.Mode
	cfg.Enhancements = rc.Enhancements
	cfg.Mem.EnablePrefetch = rc.Prefetch
	cfg.DepTrack = rc.DepTrack
	if rc.MaxChain > 0 {
		cfg.MaxChainLength = rc.MaxChain
		cfg.RunaheadBufferSize = rc.MaxChain
	}
	if rc.CCEntries > 0 {
		cfg.ChainCacheEntries = rc.CCEntries
	}
	if rc.PFKind != "" {
		cfg.Mem.PrefetchKind = rc.PFKind
	}
	return cfg
}

// run simulates one (benchmark, configuration) pair, full-detail or
// sampled.
func (r *Runner) run(bench string, rc RunConfig) *Result {
	spec, ok := workload.SpecOf(bench)
	if !ok {
		panic(fmt.Sprintf("harness: unknown benchmark %q", bench))
	}
	label := rc.Label()
	if r.opts.Progress != nil {
		r.opts.Progress(bench, label)
	}
	if m := r.opts.Monitor; m != nil {
		m.RunStart(bench, label)
		defer m.RunDone(bench, label)
	}
	res, err := r.runDetailed(bench, rc, spec)
	if err != nil {
		panic(fmt.Sprintf("harness: %s/%s: %v", bench, label, err))
	}
	res.Provenance = ProvenanceDetailed
	return res
}

// Options returns the runner's options.
func (r *Runner) Options() Options { return r.opts }

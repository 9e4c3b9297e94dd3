package harness

import (
	"fmt"
	"runtime"
	"sort"
	"sync"

	"runaheadsim/internal/bpred"
	"runaheadsim/internal/cache"
	"runaheadsim/internal/core"
	"runaheadsim/internal/energy"
	"runaheadsim/internal/isa"
	"runaheadsim/internal/memsys"
	"runaheadsim/internal/phases"
	"runaheadsim/internal/prog"
	"runaheadsim/internal/simcheck"
	"runaheadsim/internal/stats"
	"runaheadsim/internal/workload"
)

// Sampling modes. SampleEven is PR 3's engine: N windows spaced evenly
// across the measured region, merged unweighted. SamplePhase is the
// SimPoint-style engine: the functional fast-forward first profiles
// basic-block vectors over a fine window grid, deterministic k-means groups
// the windows into phases, and only one representative window per phase is
// simulated in detail, its counters scaled up by the uops its phase covers.
const (
	SampleEven  = "even"
	SamplePhase = "phase"
)

// SampleOptions tunes the sampled-interval engine (Options.Sample). The full
// measured region is covered by detailed windows — evenly spaced, or one per
// behavior phase — each reached by restoring an architectural checkpoint
// dropped during a single functional fast-forward. The fast-forward also
// warms the caches and branch predictor functionally, and each window starts
// from that warm state, then runs WarmupUops of detailed simulation to
// refill what the functional walk does not model (pipeline, MSHRs, DRAM
// queues, prefetcher, chain cache, runahead state) before measuring.
type SampleOptions struct {
	// Mode selects window placement: SampleEven (default) or SamplePhase.
	Mode string
	// Intervals is the number of detailed windows in even mode, and the cap
	// on the BIC phase search in phase mode (0 = 4). Phase mode therefore
	// never simulates more detailed windows than even mode would.
	Intervals int
	// WarmupUops is the detailed warmup run before each window's
	// measurement. Caches and predictor arrive functionally warmed, so it
	// only has to refill the timing and runahead structures (0 = 10_000).
	WarmupUops uint64
	// WindowUops is the measured length of each window. In even mode, 0
	// (or anything at least the stratum length) measures the whole region
	// in windows — detailed-execution parity with a full run, speedup from
	// workers only. In phase mode, 0 measures one BBV grid window per
	// interval. Smaller values measure just a sample of each stratum and
	// fast-forward the rest, which is where the serial speedup comes
	// from: detailed work drops from the full measured region to
	// Intervals*(WarmupUops+WindowUops).
	WindowUops uint64
	// Workers bounds how many windows simulate concurrently
	// (0 = GOMAXPROCS).
	Workers int

	// Phases, when positive, pins the phase count in phase mode instead of
	// the BIC search (the -phases override).
	Phases int
	// BBVWindows is the number of windows in the phase-mode BBV profiling
	// grid (0 = 32, clamped so every window is at least one uop). More
	// windows resolve finer phase structure at slightly more functional
	// work; the detailed cost is governed by the phase count, not the grid.
	BBVWindows int
}

func (o SampleOptions) intervals() int {
	if o.Intervals <= 0 {
		return 4
	}
	return o.Intervals
}

func (o SampleOptions) warmupUops() uint64 {
	if o.WarmupUops == 0 {
		return 10_000
	}
	return o.WarmupUops
}

func (o SampleOptions) workers() int {
	if o.Workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return o.Workers
}

func (o SampleOptions) phaseMode() bool { return o.Mode == SamplePhase }

func (o SampleOptions) bbvWindows() int {
	if o.BBVWindows <= 0 {
		return 32
	}
	return o.BBVWindows
}

// checkpoint is one detailed window of the plan: the architectural image at
// its fast-forward point (plus, in sampled runs, the functionally warmed
// caches and predictor), the detailed warmup and measurement lengths, and
// the merge weight its counters carry.
type checkpoint struct {
	id      int
	st      prog.ArchState
	warm    *warmState // nil: the window's core starts cold
	start   uint64     // committed-uop offset of the measured window's first uop
	warmup  uint64
	measure uint64
	// Merged counters scale by wnum/wden: the uops this window stands in
	// for over the uops it actually measures. Even mode windows tile their
	// strata and merge unweighted (1/1).
	wnum, wden uint64
}

// ffStart returns the committed-uop offset the functional fast-forward must
// reach before this window's checkpoint is taken, saturating at zero so an
// oversized warmup can never wrap the progress goal around uint64.
func (ck checkpoint) ffStart() uint64 {
	if ck.warmup > ck.start {
		return 0
	}
	return ck.start - ck.warmup
}

// planEven places n evenly spaced windows over the measured region
// [full, full+measure). Window i owns stratum [full+i*step, full+(i+1)*step),
// with the division remainder folded into the last stratum so the strata
// tile the region exactly — no overrun past the region end and no
// double-counted uops in the merged weights. A window measures its whole
// stratum, or just WindowUops of it when a smaller sample is requested.
func planEven(full, measure uint64, so SampleOptions) []checkpoint {
	n := so.intervals()
	if uint64(n) > measure {
		n = 1
	}
	step := measure / uint64(n)
	plan := make([]checkpoint, n)
	for i := 0; i < n; i++ {
		start := full + uint64(i)*step
		m := step
		if i == n-1 {
			m = measure - step*uint64(n-1)
		}
		if so.WindowUops > 0 && so.WindowUops < m {
			m = so.WindowUops
		}
		w := so.warmupUops()
		if w > start {
			w = start
		}
		plan[i] = checkpoint{id: i, start: start, warmup: w, measure: m, wnum: 1, wden: 1}
	}
	return plan
}

// planFromPhases turns a phase-analysis plan into checkpoints. The full
// Intervals window budget is allocated across phases proportionally to their
// uop weight (d'Hondt highest averages, so a 1-phase workload still gets all
// Intervals windows): a phase with one window simulates its representative;
// a phase with several stratifies its member list into contiguous chunks and
// simulates the member of each chunk closest to the phase centroid, each
// window carrying its chunk's exact uop weight. The measured length is
// WindowUops when set (the SimPoint shape — measurement length independent
// of the profiling grid's resolution), the grid window otherwise, clamped so
// no window overruns the measured region's end. Detailed cost therefore
// never exceeds even mode's at the same settings. The returned checkpoints
// are in ascending start order, so the fast-forward streams them in one
// pass.
func planFromPhases(plan *phases.Plan, so SampleOptions, regionEnd uint64) []checkpoint {
	k := len(plan.Phases)
	n := so.intervals()
	if n < k {
		n = k
	}
	// Highest-averages allocation of the n windows: each extra window goes
	// to the phase maximizing Weight/(alloc+1), capped at its member count;
	// ties break to the lowest phase index.
	alloc := make([]int, k)
	for i := range alloc {
		alloc[i] = 1
	}
	for given := k; given < n; given++ {
		best := -1
		for i, ph := range plan.Phases {
			if alloc[i] >= len(ph.Members) {
				continue
			}
			if best < 0 || ph.Weight*uint64(alloc[best]+1) > plan.Phases[best].Weight*uint64(alloc[i]+1) {
				best = i
			}
		}
		if best < 0 {
			break // every phase already simulates all its windows
		}
		alloc[best]++
	}

	var cks []checkpoint
	for pi, ph := range plan.Phases {
		c := alloc[pi]
		for j := 0; j < c; j++ {
			// Every chunk member belongs to the same phase, so each is
			// equally representative; taking the chunk's first keeps the
			// windows temporally stratified, and makes the k=1 degenerate
			// case reproduce even mode's placement exactly.
			chunk := ph.Members[j*len(ph.Members)/c : (j+1)*len(ph.Members)/c]
			rep := chunk[0]
			var weight uint64
			for _, mem := range chunk {
				weight += plan.Windows[mem].Len
			}
			win := plan.Windows[rep]
			m := win.Len
			if so.WindowUops > 0 {
				m = so.WindowUops
			}
			if win.Start+m > regionEnd {
				m = regionEnd - win.Start
			}
			w := so.warmupUops()
			if w > win.Start {
				w = win.Start
			}
			den := m
			if den == 0 {
				den = 1
			}
			cks = append(cks, checkpoint{start: win.Start, warmup: w, measure: m, wnum: weight, wden: den})
		}
	}
	sort.Slice(cks, func(a, b int) bool { return cks[a].start < cks[b].start })
	// Uniform weights cancel in every ratio metric (IPC, MPKI, stall
	// fractions are all ratio-of-sums, and the jackknife's leave-one-out
	// ratios scale the same way), so when every window carries the same
	// wnum/wden the plan collapses to unit weights. This skips ScaleU64's
	// per-counter rounding on the merge path, making the k=1 degenerate case
	// bit-identical to even mode rather than equal-to-within-rounding.
	uniform := true
	for i := 1; i < len(cks); i++ {
		if cks[i].wnum*cks[0].wden != cks[0].wnum*cks[i].wden {
			uniform = false
			break
		}
	}
	if uniform {
		for i := range cks {
			cks[i].wnum, cks[i].wden = 1, 1
		}
	}
	for i := range cks {
		cks[i].id = i
	}
	return cks
}

// warmState is the microarchitectural state a sampled run's fast-forward
// trains functionally: the cache tag arrays (memsys.Tags) and the branch
// predictor, walked uop by uop the way a detailed core on the correct path
// would touch them. Each checkpoint carries a copy, which runInterval
// installs into the window's fresh core.
type warmState struct {
	tags     *memsys.Tags
	bp       *bpred.Predictor
	lastLine uint64 // instruction line the walk fetched last
}

func newWarmState(cfg core.Config) *warmState {
	return &warmState{tags: memsys.NewTags(cfg.Mem), bp: bpred.New(cfg.BPred), lastLine: ^uint64(0)}
}

// step is the fast-forward interpreter's observer: an instruction fetch
// whenever the uop stream enters a new I-cache line (the core looks each
// line up once, not per uop), then the uop's data access or branch
// training.
func (w *warmState) step(u *isa.Uop, e prog.Exec) {
	if line := w.tags.L1I.LineAddr(e.PC); line != w.lastLine {
		w.lastLine = line
		w.tags.Fetch(line)
	}
	switch {
	case u.Op.IsLoad():
		w.tags.Load(e.EA)
	case u.Op.IsStore():
		w.tags.Store(e.EA)
	case u.Op.IsBranch():
		w.bp.Train(u.Op, e.PC, e.NextPC, e.Taken)
	}
}

// clone returns an independent copy of the warmed caches and predictor.
func (w *warmState) clone() *warmState {
	return &warmState{tags: w.tags.Clone(), bp: w.bp.Clone()}
}

// install copies the warmed state into a freshly built core.
func (w *warmState) install(c *core.Core) {
	w.tags.Install(c.Hierarchy())
	c.Bpred().CopyFrom(w.bp)
}

// walkKey identifies the warm state a checkpoint walk trains: the cache
// geometries and the branch predictor. configFor changes neither, so every
// configuration of a bench shares one walk.
type walkKey struct {
	l1i, l1d, llc cache.Config
	bp            bpred.Config
}

// ckWalk is one functional walk through a bench's checkpoint plan. It takes
// each checkpoint as it passes and hands it out at once, so the first run's
// windows overlap the walk. A taken checkpoint never changes: install copies
// its warm state, and each window's core writes a Clone of its image. So any
// number of runs may read the list, concurrently and after the walk ends.
type ckWalk struct {
	start sync.Once
	cks   []checkpoint    // the plan; the walk fills in st and warm
	ready []chan struct{} // ready[i] closes when cks[i] is taken or the walk fails
	done  chan struct{}   // closes when the walk has ended
	err   error           // the walk's failure; read it after done closes
}

func newWalk(plan []checkpoint) *ckWalk {
	w := &ckWalk{cks: plan, ready: make([]chan struct{}, len(plan)), done: make(chan struct{})}
	for i := range w.ready {
		w.ready[i] = make(chan struct{})
	}
	return w
}

// run interprets the program once, taking the checkpoints in order. A
// sampled run's windows start mid-program, so the walk warms caches and
// predictor on the way; a full-detail run's one window starts at program
// entry and is left cold. The walk reports to the Monitor as the
// "fast-forward" phase of the run that started it. A panic fails the walk:
// the checkpoints not yet taken stay empty and err is set.
func (w *ckWalk) run(p *prog.Program, cfg core.Config, sampled bool, m Monitor, bench, label string) {
	taken := 0
	defer close(w.done)
	defer func() {
		if rec := recover(); rec != nil {
			w.err = fmt.Errorf("functional fast-forward: %v", rec)
		}
		for _, ch := range w.ready[taken:] {
			close(ch)
		}
	}()
	in := prog.NewInterp(p)
	var warm *warmState
	if sampled {
		warm = newWarmState(cfg)
		in.Observe = warm.step
	}
	if m != nil && sampled {
		// The fast-forward's goal is the last checkpoint's position,
		// saturating at zero when the warmup exceeds the window offset.
		m.Phase(bench, label, -1, "fast-forward", w.cks[len(w.cks)-1].ffStart())
		defer m.Done(bench, label, -1)
	}
	for i := range w.cks {
		ck := &w.cks[i]
		if ff := ck.ffStart(); ff > in.Count() {
			in.Run(ff - in.Count())
		}
		ck.st = in.ArchState()
		if warm != nil {
			ck.warm = warm.clone()
		}
		if m != nil && sampled {
			m.Progress(bench, label, -1, in.Count())
		}
		close(w.ready[i])
		taken++
	}
}

// detailedUops returns the detailed-simulation cost of a plan: every warmup
// and measured uop that runs on the out-of-order core.
func detailedUops(plan []checkpoint) uint64 {
	var n uint64
	for _, ck := range plan {
		n += ck.warmup + ck.measure
	}
	return n
}

// intervalResult carries one simulated window's counters back to the merge.
type intervalResult struct {
	st       *core.Stats
	timeline *stats.Timeline
	activity energy.Activity
	llcMiss  uint64
	dramReqs uint64
	chains   []string
	err      error
}

// runDetailed simulates one run as a plan of detailed windows and merges
// them. Without Options.Sample the plan is one window: a checkpoint at
// program entry, warmed for the run's warmup and measured for MeasureUops —
// a full-detail run. Any window that fails — a panic in the detailed core, a
// simcheck violation, a fast-forward fault — fails the whole run, reported
// under the lowest failing interval id.
func (r *Runner) runDetailed(bench string, rc RunConfig, spec workload.Spec) (*Result, error) {
	cfg := r.opts.CoreConfig(rc)
	p := workload.MustLoad(bench)

	full := r.opts.Warmup(spec.Class)
	measure := r.opts.MeasureUops
	label := rc.Label()
	m := r.opts.Monitor
	sampled := r.opts.Sample != nil
	var so SampleOptions
	if sampled {
		so = *r.opts.Sample
	}

	var plan []checkpoint
	var phasePlan *phases.Plan
	switch {
	case !sampled:
		plan = []checkpoint{{start: full, warmup: full, measure: measure, wnum: 1, wden: 1}}
	case so.phaseMode():
		pp, err := r.phasePlan(bench, label, p, full, measure, so)
		if err != nil {
			return nil, err
		}
		phasePlan = pp
		plan = planFromPhases(phasePlan, so, full+measure)
	default:
		plan = planEven(full, measure, so)
	}
	n := len(plan)

	// The run's windows start from a checkpoint walk (checkpointWalk): the
	// bench's shared walk for a planned pair, a private one otherwise. Each
	// window starts as soon as the walk has taken its checkpoint.
	w := r.checkpointWalk(bench, key(bench, rc), cfg, plan)
	w.start.Do(func() { go w.run(p, cfg, sampled, m, bench, label) })
	plan = w.cks
	ids := make(chan int, n)
	for i := range n {
		ids <- i
	}
	close(ids)
	results := make([]intervalResult, n)
	var wg sync.WaitGroup
	for range min(so.workers(), n) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range ids {
				<-w.ready[i]
				if plan[i].st.Mem == nil {
					continue // the walk failed before this checkpoint
				}
				results[i] = r.runInterval(bench, label, cfg, p, plan[i])
			}
		}()
	}
	wg.Wait()
	<-w.done
	if w.err != nil {
		return nil, w.err
	}
	merged := core.NewStats()
	var act energy.Activity
	act.Stats = merged
	var llcMisses uint64
	res := &Result{Bench: bench, Config: rc, Stats: merged}
	for i := range results {
		ir := &results[i]
		if ir.err != nil {
			return nil, ir.err
		}
		if ir.st == nil {
			return nil, fmt.Errorf("interval %d: no result", i)
		}
		ck := plan[i]
		merged.MergeScaled(ir.st, ck.wnum, ck.wden)
		act.L1DAccesses += stats.ScaleU64(ir.activity.L1DAccesses, ck.wnum, ck.wden)
		act.L1IAccesses += stats.ScaleU64(ir.activity.L1IAccesses, ck.wnum, ck.wden)
		act.LLCAccesses += stats.ScaleU64(ir.activity.LLCAccesses, ck.wnum, ck.wden)
		act.DRAMReads += stats.ScaleU64(ir.activity.DRAMReads, ck.wnum, ck.wden)
		act.DRAMWrites += stats.ScaleU64(ir.activity.DRAMWrites, ck.wnum, ck.wden)
		act.DRAMActivates += stats.ScaleU64(ir.activity.DRAMActivates, ck.wnum, ck.wden)
		llcMisses += stats.ScaleU64(ir.llcMiss, ck.wnum, ck.wden)
		res.DRAMRequests += stats.ScaleU64(ir.dramReqs, ck.wnum, ck.wden)
		if len(ir.chains) > 0 {
			res.Chains = ir.chains // keep the latest window's chains
		}
		res.Timeline = ir.timeline
	}
	// The energy model is linear in its counters, so computing it over the
	// summed activity equals summing per-window breakdowns.
	res.Energy = energy.Compute(energy.DefaultParams(), act)
	res.IPC = merged.IPC()
	res.MPKI = 1000 * stats.Div(float64(llcMisses), float64(merged.Committed))
	res.MemStallPct = 100 * stats.Div(float64(merged.MemStallCycles), float64(merged.Cycles))

	if !sampled {
		return res, nil
	}
	res.Sampling = &SamplingInfo{
		Mode:         so.Mode,
		Intervals:    n,
		DetailedUops: detailedUops(plan),
	}
	if res.Sampling.Mode == "" {
		res.Sampling.Mode = SampleEven
	}
	if phasePlan != nil {
		res.Sampling.BBVWindows = len(phasePlan.Windows)
		res.Sampling.Phases = phasePlan.K()
		res.Sampling.Dispersion = phasePlan.AvgDispersion()
		res.Sampling.CIs = sampleCIs(plan, results, phasePlan)
	}
	return res, nil
}

// runInterval simulates one detailed window from its checkpoint: it builds
// the core, installs the checkpoint's functionally warmed caches and
// predictor when it carries them, attaches the simcheck oracle when asked,
// warms, resets the statistics, measures, and reads the window out. In a
// full-detail run (no Options.Sample) the one window reports to the Monitor
// as interval -1, and carries the timeline when TimelineInterval is set.
// Panics (core bugs, simcheck violations) surface as errors rather than
// killing the worker pool; a dying window dumps its flight recorder first
// when FlightDumpDir is set.
func (r *Runner) runInterval(bench, label string, cfg core.Config, p *prog.Program, ck checkpoint) (ir intervalResult) {
	sampled := r.opts.Sample != nil
	iv, flight := -1, "flight-"+bench+"-"+label
	if sampled {
		iv, flight = ck.id, fmt.Sprintf("%s-i%d", flight, ck.id)
	}
	m := r.opts.Monitor
	var c *core.Core
	defer func() {
		if rec := recover(); rec != nil {
			if c != nil {
				if path := WriteFlightDump(r.opts.FlightDumpDir, flight, c); path != "" {
					rec = fmt.Sprintf("%v\n  (flight recorder dumped to %s)", rec, path)
				}
			}
			if sampled {
				rec = fmt.Sprintf("interval %d: %v", ck.id, rec)
			}
			ir.err = fmt.Errorf("%v", rec)
		}
		if m != nil {
			m.Done(bench, label, iv)
		}
	}()
	// Other windows and runs share the checkpoint; the core writes a copy.
	st := ck.st
	st.Mem = st.Mem.Clone()
	c = core.NewFromArch(cfg, p, st)
	if ck.warm != nil {
		ck.warm.install(c)
	}
	var chk *simcheck.Checker
	if r.opts.Check || simcheck.TagEnabled {
		chk = simcheck.AttachResumed(c, p, simcheck.Options{})
	}
	var report func(uint64)
	if m != nil {
		report = func(done uint64) { m.Progress(bench, label, iv, done) }
		m.Phase(bench, label, iv, "warmup", ck.warmup)
	}
	chunkRun(c, ck.warmup, report)
	c.ResetStats()
	if n := r.opts.TimelineInterval; n > 0 && !sampled {
		samples := r.opts.TimelineSamples
		if samples <= 0 {
			samples = 4096
		}
		ir.timeline = stats.NewTimeline(n, samples)
		c.SetTimeline(ir.timeline)
	}
	if m != nil {
		m.Phase(bench, label, iv, "measure", ck.measure)
	}
	ir.st = chunkRun(c, ck.measure, report)
	if chk != nil {
		chk.Finish()
	}
	ir.activity = energy.Measure(c)
	ir.llcMiss = c.Hierarchy().LLCDemandMisses
	ir.dramReqs = c.Hierarchy().TotalDRAMRequests()
	for _, chain := range c.CachedChains() {
		ir.chains = append(ir.chains, chain.String())
	}
	return ir
}

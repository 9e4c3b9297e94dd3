package harness

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"runaheadsim/internal/core"
	"runaheadsim/internal/energy"
	"runaheadsim/internal/twin"
	"runaheadsim/internal/workload"
)

// SetScreen activates the screening tier on this runner (nil deactivates):
// subsequent Result calls for non-promoted pairs return twin predictions
// instead of simulating. Cached detailed results are unaffected — screening
// changes only how new entries are produced.
func (r *Runner) SetScreen(sc *Screen) {
	r.mu.Lock()
	r.screen = sc
	r.mu.Unlock()
}

// profEntry is one memoized workload profile; once gates the single build.
type profEntry struct {
	once sync.Once
	wp   *twin.WorkloadProfile
}

// twinProfile returns the memoized interpreter-speed profile for a bench
// (single-flight, like detailed runs). Warmup and measure lengths mirror the
// detailed runs so calibration compares like with like.
func (r *Runner) twinProfile(bench string) *twin.WorkloadProfile {
	r.mu.Lock()
	e := r.profiles[bench]
	if e == nil {
		e = &profEntry{}
		r.profiles[bench] = e
	}
	r.mu.Unlock()
	e.once.Do(func() {
		spec, ok := workload.SpecOf(bench)
		if !ok {
			panic(fmt.Sprintf("harness: unknown benchmark %q", bench))
		}
		//simlint:allow determinism -- wall-clock timing is the measurement here, not simulated state
		t0 := time.Now()
		p := workload.MustLoad(bench)
		m := twin.MachineFrom(twinMachineConfig())
		e.wp = twin.BuildProfile(bench, p, m, r.opts.warmup(spec.Class), r.opts.MeasureUops)
		atomic.AddInt64(&r.profileWallNanos, int64(time.Since(t0)))
	})
	return e.wp
}

// ProfileWallSec reports the wall seconds this runner has spent in
// interpreter-speed profiling passes (twin profiles, BBV phase profiles) —
// the screening tier's overhead, reported alongside simulation wall time.
func (r *Runner) ProfileWallSec() float64 {
	return float64(atomic.LoadInt64(&r.profileWallNanos)) / 1e9
}

// Result provenance values. Every Result carries one, so merged twin/detailed
// sweeps stay attributable all the way into report JSON.
const (
	ProvenanceDetailed = "detailed"
	ProvenanceTwin     = "twin"
)

// CalibrationConfigs is the matrix the twin is calibrated against: every
// runahead mechanism at Table 1 sizes, no prefetchers (the twin's profile
// pass does not model prefetch-perturbed cache contents).
func CalibrationConfigs() []RunConfig {
	return []RunConfig{Baseline, Runahead, Buffer, BufferCC, Hybrid}
}

// twinMachineConfig is the structural configuration the twin is keyed to:
// the Table 1 baseline. Per-RunConfig differences (mode, enhancements) are
// model inputs, not machine identity.
func twinMachineConfig() core.Config { return configFor(Baseline) }

// TwinFingerprint is the config fingerprint calibration artifacts are keyed
// by; a twin calibrated under one machine refuses to screen another.
func TwinFingerprint() uint64 { return core.ConfigFingerprint(twinMachineConfig()) }

// Calibrate runs the detailed calibration matrix (benches × configs, with
// the runner's memo cache and `workers` parallel simulations), profiles
// every bench at interpreter speed, and fits the twin. It returns the
// fitted model and the calibration points (for rescoring and reporting).
// Empty benches/configs default to the full seed matrix.
func (r *Runner) Calibrate(benches []string, configs []RunConfig, workers int) (*twin.Model, []twin.Point, error) {
	if len(benches) == 0 {
		benches = workload.Names()
	}
	if len(configs) == 0 {
		configs = CalibrationConfigs()
	}
	var pairs []PlannedRun
	for _, b := range benches {
		for _, rc := range configs {
			pairs = append(pairs, PlannedRun{Bench: b, Config: rc})
		}
	}
	r.Prewarm(pairs, workers)
	r.buildProfiles(benches, workers)

	m := twin.MachineFrom(twinMachineConfig())
	var points []twin.Point
	for _, bench := range benches {
		spec, ok := workload.SpecOf(bench)
		if !ok {
			return nil, nil, fmt.Errorf("harness: unknown benchmark %q", bench)
		}
		wp := r.twinProfile(bench)
		for _, rc := range configs {
			res := r.Result(bench, rc)
			pt := twin.PointFrom(wp, m, rc.Mode, spec.Class.String())
			pt.DetCycles = float64(res.Stats.Cycles)
			pt.DetIPC = res.IPC
			pt.DetEnergyUJ = res.Energy.Total()
			points = append(points, pt)
		}
	}
	model, err := twin.Fit(points, m, TwinFingerprint(), r.opts.MeasureUops)
	if err != nil {
		return nil, nil, err
	}
	return model, points, nil
}

// buildProfiles fills the runner's profile cache for the given benches on a
// worker pool (each profile is a single-flight memo, like detailed runs).
func (r *Runner) buildProfiles(benches []string, workers int) {
	if workers < 1 {
		workers = 1
	}
	if workers > len(benches) {
		workers = len(benches)
	}
	ch := make(chan string)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for b := range ch {
				r.twinProfile(b)
			}
		}()
	}
	for _, b := range benches {
		ch <- b
	}
	close(ch)
	wg.Wait()
}

// ScreenOptions tunes the screening tier's promotion policy.
type ScreenOptions struct {
	// Model is the calibrated twin (required).
	Model *twin.Model
	// TopK promotes the benches with the largest twin-predicted
	// RB-vs-baseline IPC deltas — the regions the headline figures hinge
	// on. Zero means 3.
	TopK int
	// UncertainPct promotes benches whose calibration-time IPC MAPE
	// exceeds this percentage (or that were never calibrated): where the
	// twin knows it is wrong, the detailed simulator decides. Zero means
	// 10.
	UncertainPct float64
	// Critical benches are always promoted (figure-critical cells the
	// caller refuses to take from the twin).
	Critical []string
}

// ScreenRow is one bench's screening decision, for the provenance table.
type ScreenRow struct {
	Bench        string  `json:"bench"`
	Provenance   string  `json:"provenance"`
	Reason       string  `json:"reason,omitempty"`
	TwinDeltaPct float64 `json:"twin_rb_delta_pct"`
	MAPEPct      float64 `json:"calibration_mape_pct"`
}

// Screen is a built screening plan: which benches run detailed, and the
// twin that answers for the rest.
type Screen struct {
	model    *twin.Model
	machine  twin.Machine
	rows     []ScreenRow
	promoted map[string]bool
}

// BuildScreen profiles every bench the plan touches, evaluates the twin
// across the matrix, and decides promotions: top-k twin-predicted
// RB-vs-baseline deltas, twin-uncertain benches, and caller-critical ones.
// Configurations the twin cannot model (prefetchers, DepTrack, structure-
// size overrides) are always simulated in detail regardless of bench.
func BuildScreen(r *Runner, plan []PlannedRun, so ScreenOptions, workers int) (*Screen, error) {
	if so.Model == nil {
		return nil, fmt.Errorf("harness: screening needs a calibrated twin model")
	}
	if so.Model.Fingerprint != TwinFingerprint() {
		return nil, fmt.Errorf("harness: twin model fingerprint %016x does not match this machine (%016x): recalibrate",
			so.Model.Fingerprint, TwinFingerprint())
	}
	topK := so.TopK
	if topK <= 0 {
		topK = 3
	}
	uncertain := so.UncertainPct
	if uncertain <= 0 {
		uncertain = 10
	}

	var benches []string
	seen := map[string]bool{}
	for _, pr := range plan {
		if !seen[pr.Bench] {
			seen[pr.Bench] = true
			benches = append(benches, pr.Bench)
		}
	}
	r.buildProfiles(benches, workers)

	sc := &Screen{
		model:    so.Model,
		machine:  twin.MachineFrom(twinMachineConfig()),
		promoted: make(map[string]bool),
	}
	critical := map[string]bool{}
	for _, b := range so.Critical {
		critical[b] = true
	}

	type cand struct {
		bench string
		delta float64
		mape  float64
	}
	cands := make([]cand, 0, len(benches))
	for _, bench := range benches {
		spec, ok := workload.SpecOf(bench)
		if !ok {
			return nil, fmt.Errorf("harness: unknown benchmark %q", bench)
		}
		wp := r.twinProfile(bench)
		base, err := so.Model.Predict(twin.PointFrom(wp, sc.machine, core.ModeNone, spec.Class.String()))
		if err != nil {
			return nil, err
		}
		rb, err := so.Model.Predict(twin.PointFrom(wp, sc.machine, core.ModeBuffer, spec.Class.String()))
		if err != nil {
			return nil, err
		}
		delta := 100 * (rb.IPC - base.IPC) / base.IPC
		cands = append(cands, cand{bench: bench, delta: delta, mape: so.Model.WorkloadMAPE(bench)})
	}

	// Top-k by twin-predicted |delta|, name-tie-broken for determinism.
	ranked := make([]cand, len(cands))
	copy(ranked, cands)
	sort.SliceStable(ranked, func(a, b int) bool {
		da, db := math.Abs(ranked[a].delta), math.Abs(ranked[b].delta)
		if da != db {
			return da > db
		}
		return ranked[a].bench < ranked[b].bench
	})
	topSet := map[string]bool{}
	for i := 0; i < topK && i < len(ranked); i++ {
		topSet[ranked[i].bench] = true
	}

	for _, c := range cands {
		row := ScreenRow{Bench: c.bench, TwinDeltaPct: c.delta, MAPEPct: c.mape, Provenance: ProvenanceTwin}
		switch {
		case critical[c.bench]:
			row.Reason = "critical"
		case c.mape < 0 || c.mape > uncertain:
			row.Reason = "uncertain"
		case topSet[c.bench]:
			row.Reason = "top-k delta"
		}
		if row.Reason != "" {
			row.Provenance = ProvenanceDetailed
			sc.promoted[c.bench] = true
		}
		sc.rows = append(sc.rows, row)
	}
	return sc, nil
}

// WantsDetailed reports whether this pair must run on the detailed
// simulator: promoted bench, or a configuration outside the twin's modeling
// domain.
func (sc *Screen) WantsDetailed(bench string, rc RunConfig) bool {
	if sc.promoted[bench] {
		return true
	}
	return rc.DepTrack || rc.Prefetch || rc.MaxChain != 0 || rc.CCEntries != 0
}

// Promoted filters a plan down to the pairs that will actually simulate in
// detail — the Prewarm work list under screening.
func (sc *Screen) Promoted(plan []PlannedRun) []PlannedRun {
	var out []PlannedRun
	for _, pr := range plan {
		if sc.WantsDetailed(pr.Bench, pr.Config) {
			out = append(out, pr)
		}
	}
	return out
}

// Rows returns the per-bench screening decisions in plan order.
func (sc *Screen) Rows() []ScreenRow { return sc.rows }

// Table renders the screening decisions as a provenance table.
func (sc *Screen) Table() Table {
	t := Table{
		ID:      "screen",
		Title:   "Screening tier: twin-predicted vs detailed provenance",
		Columns: []string{"Benchmark", "Provenance", "Reason", "Twin RB vs Base", "Calib MAPE"},
	}
	var promoted int
	for _, row := range sc.rows {
		mape := "-"
		if row.MAPEPct >= 0 {
			mape = pct(row.MAPEPct)
		}
		reason := row.Reason
		if reason == "" {
			reason = "-"
		}
		t.AddRow(row.Bench, row.Provenance, reason, pct(row.TwinDeltaPct), mape)
		if row.Provenance == ProvenanceDetailed {
			promoted++
		}
	}
	t.Notes = append(t.Notes, fmt.Sprintf(
		"%d of %d benchmarks promoted to detailed simulation; the rest are analytical-twin predictions (model MAPE %.1f%%, r %.3f)",
		promoted, len(sc.rows), sc.model.Scores.MAPEPct, sc.model.Scores.PearsonR))
	return t
}

// twinRun synthesizes a Result from the twin for a non-promoted pair.
func (r *Runner) twinRun(sc *Screen, bench string, rc RunConfig) *Result {
	spec, ok := workload.SpecOf(bench)
	if !ok {
		panic(fmt.Sprintf("harness: unknown benchmark %q", bench))
	}
	wp := r.twinProfile(bench)
	pt := twin.PointFrom(wp, sc.machine, rc.Mode, spec.Class.String())
	pred, err := sc.model.Predict(pt)
	if err != nil {
		panic(fmt.Sprintf("harness: twin prediction for %s/%s: %v", bench, rc.Label(), err))
	}
	return &Result{
		Bench:        bench,
		Config:       rc,
		Stats:        core.NewTwinStats(pred.Cycles, pt.Uops, pred.CPI),
		Energy:       twinBreakdown(pred.EnergyUJ, pt, pred.Cycles),
		IPC:          pred.IPC,
		MPKI:         pred.MPKI,
		MemStallPct:  pred.MemStallPct,
		DRAMRequests: wp.DRAMLoads + wp.DRAMStores,
		Provenance:   ProvenanceTwin,
	}
}

// twinBreakdown splits the twin's fitted total energy across the report's
// component buckets using the white-box per-event costs as proportions:
// the total is calibrated, the split is structural.
func twinBreakdown(totalUJ float64, pt twin.Point, cycles int64) energy.Breakdown {
	if totalUJ <= 0 {
		return energy.Breakdown{}
	}
	p := energy.DefaultParams()
	uops := pt.EX[twin.EUops]
	l1 := pt.EX[twin.EL1]
	llc := pt.EX[twin.ELLC]
	dram := pt.EX[twin.EDRAM]
	ra := pt.EX[twin.ERA]
	b := energy.Breakdown{
		FrontEnd:    uops * (p.Fetch + p.Decode),
		Backend:     uops * (p.Rename + p.RSDispatch + p.ROBWrite + p.ROBRead + p.ALU),
		Caches:      (uops + l1) * p.L1Access, // +uops: I-side fetches
		RunaheadHW:  ra * (p.PCCAM + p.DestCAM),
		CoreLeakage: float64(cycles) * p.CoreLeakage,
		DRAMDynamic: dram * (p.DRAMReadWrite + p.DRAMActivate),
		DRAMStatic:  float64(cycles) * p.DRAMBackground,
	}
	b.Caches += llc * p.LLCAccess
	sum := b.Total()
	if sum <= 0 {
		return energy.Breakdown{}
	}
	s := totalUJ / sum // also normalizes the pJ-scale components to uJ
	b.FrontEnd *= s
	b.Backend *= s
	b.Caches *= s
	b.RunaheadHW *= s
	b.CoreLeakage *= s
	b.DRAMDynamic *= s
	b.DRAMStatic *= s
	return b
}

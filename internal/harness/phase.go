package harness

import (
	"fmt"
	"math"
	"sync/atomic"
	"time"

	"runaheadsim/internal/isa"
	"runaheadsim/internal/phases"
	"runaheadsim/internal/prog"
	"runaheadsim/internal/stats"
)

// SamplingInfo describes how a sampled result was produced, attached to
// Result so reports can show the accuracy/cost trade alongside the metrics.
type SamplingInfo struct {
	// Mode is SampleEven or SamplePhase.
	Mode string `json:"mode"`
	// Intervals is the number of detailed windows actually simulated.
	Intervals int `json:"intervals"`
	// DetailedUops is the total detailed-simulation cost (warmup + measured
	// uops across all windows) — the denominator of any accuracy-per-cost
	// comparison between modes.
	DetailedUops uint64 `json:"detailed_uops"`

	// BBVWindows, Phases and Dispersion are phase-mode only: the profiling
	// grid size, the clustered phase count, and the uop-weighted mean
	// Manhattan distance of windows to their phase centroid (0 = perfectly
	// homogeneous phases, 2 = maximally mixed).
	BBVWindows int     `json:"bbv_windows,omitempty"`
	Phases     int     `json:"phases,omitempty"`
	Dispersion float64 `json:"dispersion,omitempty"`

	// CIs are per-metric confidence intervals for the phase-weighted
	// estimates (empty in even mode, which has no phase structure to
	// resample over).
	CIs []SampleCI `json:"cis,omitempty"`
}

// SampleCI is a confidence interval for one phase-weighted metric estimate.
type SampleCI struct {
	Metric string  `json:"metric"`
	Mean   float64 `json:"mean"`
	Lo     float64 `json:"lo"`
	Hi     float64 `json:"hi"`
}

// CI returns the interval for the named metric, or nil when absent.
func (si *SamplingInfo) CI(metric string) *SampleCI {
	if si == nil {
		return nil
	}
	for i := range si.CIs {
		if si.CIs[i].Metric == metric {
			return &si.CIs[i]
		}
	}
	return nil
}

const (
	// ciZ is the normal 95% critical value applied to the jackknife
	// standard error.
	ciZ = 1.96
	// ciFloorRel is a relative floor added to every half-width: with a
	// handful of phases the jackknife variance underestimates badly (and is
	// zero for k=1), while sampling error below a few percent is
	// indistinguishable from warmup noise anyway.
	ciFloorRel = 0.03
	// ciTransientUops is the empirical start-up transient scale. Every
	// detailed window starts with functionally warmed caches and predictor
	// and refills the rest for WarmupUops, but the deep structures (chain
	// cache, runahead intervals in flight, DRAM row buffers) carry a
	// residual transient on the order of a couple thousand uops that
	// biases every window the same way — invisible to the jackknife,
	// shrinking inversely with the measured window length. Calibrated so
	// the full-detail IPC of the seed kernels lands inside the interval
	// from 15k-uop windows (where the engine's error peaks near its
	// documented bound) down to full-parity strata (where the term
	// vanishes into the floor).
	ciTransientUops = 2000.0
)

// SamplingTable renders the per-metric 95% confidence intervals carried by
// phase-sampled results: one row per (benchmark, configuration) pair that
// was simulated with sampling, next to its phase count and clustering
// dispersion. Even-mode and full-detail rows are skipped — they carry no
// phase structure to resample over.
func SamplingTable(r *Runner) Table {
	t := Table{ID: "sampling", Title: "Phase-sampling confidence intervals (95%)",
		Columns: []string{"Benchmark", "Config", "Phases", "Disp", "IPC", "IPC CI", "MPKI CI", "MemStall% CI"}}
	ci := func(si *SamplingInfo, metric string) string {
		c := si.CI(metric)
		if c == nil {
			return "-"
		}
		return fmt.Sprintf("[%.3f, %.3f]", c.Lo, c.Hi)
	}
	for _, name := range r.mhNames() {
		for _, rc := range []RunConfig{Baseline, BufferCC, Hybrid} {
			res := r.Result(name, rc)
			si := res.Sampling
			if si == nil || len(si.CIs) == 0 {
				continue
			}
			t.AddRow(name, rc.Label(), fmt.Sprint(si.Phases), fmt.Sprintf("%.4f", si.Dispersion),
				fmt.Sprintf("%.3f", res.IPC), ci(si, "IPC"), ci(si, "MPKI"), ci(si, "MemStallPct"))
		}
	}
	if len(t.Rows) == 0 {
		t.Notes = append(t.Notes, "no phase-sampled runs (use -sample -sample-mode=phase)")
	}
	return t
}

// ProfileWallSec reports the wall seconds this runner has spent in BBV
// phase profiling — interpreter-speed passes that phase mode pays on top
// of its detailed windows.
func (r *Runner) ProfileWallSec() float64 {
	return float64(atomic.LoadInt64(&r.profileWallNanos)) / 1e9
}

// ProvenanceDetailed is the Provenance every Result carries: it was
// produced by the simulator, full-detail or sampled.
const ProvenanceDetailed = "detailed"

// phasePlan returns the bench's phase plan, profiling it on first use. The
// plan depends only on the bench and the runner's options, so it is
// memoized in the bench's profile entry and every configuration of the
// bench shares one BBV pass.
func (r *Runner) phasePlan(bench, label string, p *prog.Program, full, measure uint64, so SampleOptions) (*phases.Plan, error) {
	e := r.profile(bench)
	e.planOnce.Do(func() { e.plan, e.planErr = r.profilePhases(bench, label, p, full, measure, so) })
	return e.plan, e.planErr
}

// profilePhases is phase mode's planning pass: one functional interpretation
// of warmup + measured region collecting a basic-block vector per grid
// window, then deterministic clustering into phases. Reported to the Monitor
// as a "bbv-profile" phase on the planner pseudo-interval (-1) of the run
// that asked first, ahead of that run's fast-forward.
func (r *Runner) profilePhases(bench, label string, p *prog.Program, full, measure uint64, so SampleOptions) (pl *phases.Plan, err error) {
	defer func() {
		if rec := recover(); rec != nil {
			pl, err = nil, fmt.Errorf("bbv profile: %v", rec)
		}
	}()
	//simlint:allow determinism -- wall-clock timing is the measurement here, not simulated state
	t0 := time.Now()
	defer func() {
		atomic.AddInt64(&r.profileWallNanos, int64(time.Since(t0)))
	}()
	w := so.bbvWindows()
	if uint64(w) > measure {
		w = int(measure)
	}
	if w < 1 {
		w = 1
	}
	step := measure / uint64(w)
	m := r.opts.Monitor
	if m != nil {
		m.Phase(bench, label, -1, "bbv-profile", full+measure)
		defer m.Done(bench, label, -1)
	}
	in := prog.NewInterp(p)
	in.Run(full)
	windows := make([]phases.Window, w)
	vecs := make([]phases.Vector, w)
	// The basic-block vector: each executed uop counts at its static block
	// (uop-weighted block frequencies, the SimPoint form).
	counts := make([]uint64, p.NumBlocks())
	in.Observe = func(_ *isa.Uop, e prog.Exec) { counts[p.BlockOf[e.Index]]++ }
	for i := 0; i < w; i++ {
		n := step
		if i == w-1 {
			n = measure - step*uint64(w-1)
		}
		windows[i] = phases.Window{Start: full + uint64(i)*step, Len: n}
		clear(counts)
		in.Run(n)
		vecs[i] = phases.Normalize(counts)
	}
	// Capping the phase search at the even-mode interval count keeps phase
	// mode's detailed cost at or below even mode's for the same settings.
	maxK := so.intervals()
	if maxK > w {
		maxK = w
	}
	return phases.Build(windows, vecs, maxK, so.Phases), nil
}

// sampleCIs builds 95% confidence intervals for the phase-weighted
// ratio-of-sums estimators (IPC, MPKI, MemStallPct). The variance term is a
// delete-one-phase jackknife; on top of it every half-width carries a
// relative floor plus a term proportional to the clustering dispersion, so a
// poor clustering (heterogeneous phases) honestly widens the interval even
// when the few phase samples happen to agree.
func sampleCIs(plan []checkpoint, results []intervalResult, pp *phases.Plan) []SampleCI {
	type ratio struct {
		name string
		num  func(*intervalResult) float64
		den  func(*intervalResult) float64
	}
	metrics := []ratio{
		{"IPC",
			func(ir *intervalResult) float64 { return float64(ir.st.Committed) },
			func(ir *intervalResult) float64 { return float64(ir.st.Cycles) }},
		{"MPKI",
			func(ir *intervalResult) float64 { return 1000 * float64(ir.llcMiss) },
			func(ir *intervalResult) float64 { return float64(ir.st.Committed) }},
		{"MemStallPct",
			func(ir *intervalResult) float64 { return 100 * float64(ir.st.MemStallCycles) },
			func(ir *intervalResult) float64 { return float64(ir.st.Cycles) }},
	}
	k := len(plan)
	disp := pp.AvgDispersion()
	minMeasure := plan[0].measure
	for _, ck := range plan {
		if ck.measure < minMeasure {
			minMeasure = ck.measure
		}
	}
	relFloor := ciFloorRel + disp/2
	if minMeasure > 0 {
		relFloor += ciTransientUops / float64(minMeasure)
	}
	cis := make([]SampleCI, 0, len(metrics))
	for _, mt := range metrics {
		nums := make([]float64, k)
		dens := make([]float64, k)
		var sn, sd float64
		for i := range plan {
			w := float64(plan[i].wnum) / float64(plan[i].wden)
			nums[i] = w * mt.num(&results[i])
			dens[i] = w * mt.den(&results[i])
			sn += nums[i]
			sd += dens[i]
		}
		mean := stats.Div(sn, sd)
		var varJack float64
		if k > 1 {
			loo := make([]float64, k)
			var avg float64
			for i := 0; i < k; i++ {
				loo[i] = stats.Div(sn-nums[i], sd-dens[i])
				avg += loo[i]
			}
			avg /= float64(k)
			for i := 0; i < k; i++ {
				d := loo[i] - avg
				varJack += d * d
			}
			varJack *= float64(k-1) / float64(k)
		}
		half := ciZ*math.Sqrt(varJack) + mean*relFloor
		lo := mean - half
		if lo < 0 {
			lo = 0
		}
		cis = append(cis, SampleCI{Metric: mt.name, Mean: mean, Lo: lo, Hi: mean + half})
	}
	return cis
}

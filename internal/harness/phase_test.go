package harness

import (
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"

	"runaheadsim/internal/phases"
	"runaheadsim/internal/snapshot"
)

// TestPlanEvenTiling checks the interval placement over awkward
// region/interval combinations: the strata must tile the measured region
// exactly (no overrun past the region end, no double-counted uops), warmups
// must clamp at the region start, and weights must be the unit rational.
func TestPlanEvenTiling(t *testing.T) {
	cases := []struct {
		name          string
		full, measure uint64
		so            SampleOptions
	}{
		{"divisible", 100_000, 120_000, SampleOptions{Intervals: 4}},
		{"remainder", 100_000, 100_001, SampleOptions{Intervals: 4}},
		{"prime-region", 50_000, 99_991, SampleOptions{Intervals: 7}},
		{"more-intervals-than-uops", 1_000, 3, SampleOptions{Intervals: 8}},
		{"one-interval", 1_000, 50_000, SampleOptions{Intervals: 1}},
		{"window-capped", 100_000, 120_000, SampleOptions{Intervals: 4, WindowUops: 10_000}},
		{"window-above-stratum", 100_000, 120_000, SampleOptions{Intervals: 4, WindowUops: 1 << 40}},
		{"warmup-exceeds-start", 10, 80_000, SampleOptions{Intervals: 4, WarmupUops: 1 << 30}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			plan := planEven(tc.full, tc.measure, tc.so)
			if len(plan) == 0 {
				t.Fatal("empty plan")
			}
			end := tc.full + tc.measure
			var covered uint64
			prevEnd := tc.full
			for i, ck := range plan {
				if ck.id != i {
					t.Errorf("checkpoint %d has id %d", i, ck.id)
				}
				if ck.wnum != 1 || ck.wden != 1 {
					t.Errorf("interval %d: even-mode weight %d/%d, want 1/1", i, ck.wnum, ck.wden)
				}
				if ck.start < prevEnd {
					t.Errorf("interval %d starts at %d inside the previous stratum (ends %d): double-counted uops", i, ck.start, prevEnd)
				}
				if ck.start+ck.measure > end {
					t.Errorf("interval %d overruns the region: [%d, %d) vs end %d", i, ck.start, ck.start+ck.measure, end)
				}
				if ck.warmup > ck.start {
					t.Errorf("interval %d: warmup %d exceeds start %d (fast-forward would wrap)", i, ck.warmup, ck.start)
				}
				covered += ck.measure
				prevEnd = ck.start + ck.measure
			}
			if tc.so.WindowUops == 0 || tc.so.WindowUops >= tc.measure {
				// Full-parity plans must measure the whole region exactly.
				want := tc.measure
				if tc.so.WindowUops > 0 && tc.so.WindowUops < want {
					want = tc.so.WindowUops
				}
				if covered != want && tc.so.WindowUops == 0 {
					t.Errorf("strata cover %d uops, want %d", covered, tc.measure)
				}
			}
			last := plan[len(plan)-1]
			if lastEnd := last.start + last.measure; tc.so.WindowUops == 0 && lastEnd != end {
				t.Errorf("last window ends at %d, want region end %d", lastEnd, end)
			}
		})
	}
}

// TestCheckpointFFStartSaturates is the regression test for the wrapped
// fast-forward progress goal: a warmup larger than the window offset must
// clamp the goal to zero, never wrap around uint64.
func TestCheckpointFFStartSaturates(t *testing.T) {
	cases := []struct {
		start, warmup, want uint64
	}{
		{100_000, 50_000, 50_000},
		{100_000, 100_000, 0},
		{10, 1 << 30, 0},
		{0, 1, 0},
		{0, 0, 0},
	}
	for _, tc := range cases {
		ck := checkpoint{start: tc.start, warmup: tc.warmup}
		if got := ck.ffStart(); got != tc.want {
			t.Errorf("ffStart(start=%d, warmup=%d) = %d, want %d", tc.start, tc.warmup, got, tc.want)
		}
		if ck.ffStart() > math.MaxUint64/2 {
			t.Errorf("ffStart(start=%d, warmup=%d) wrapped: %d", tc.start, tc.warmup, ck.ffStart())
		}
	}
}

// goalMonitor records every Phase goal reported for the planner
// pseudo-interval (-1).
type goalMonitor struct {
	mu    sync.Mutex
	goals []uint64
}

func (g *goalMonitor) RunStart(_, _ string)    {}
func (g *goalMonitor) RunDone(_, _ string)     {}
func (g *goalMonitor) Done(_, _ string, _ int) {}
func (g *goalMonitor) Phase(_, _ string, interval int, _ string, total uint64) {
	if interval == -1 {
		g.mu.Lock()
		g.goals = append(g.goals, total)
		g.mu.Unlock()
	}
}

// TestBBVProfileOncePerBench checks the phase plan is memoized per bench: a
// phase-sampled figure-9 sweep over two benches runs two BBV passes, not one
// per (bench, configuration), and a later configuration of a profiled bench
// reuses its plan without adding profiling time.
func TestBBVProfileOncePerBench(t *testing.T) {
	pl := &phaseLog{}
	opts := Options{MeasureUops: 20_000, WarmupUops: 10_000, Benchmarks: []string{"mcf", "libquantum"}, Monitor: pl,
		Sample: &SampleOptions{Mode: SamplePhase, Intervals: 4, WarmupUops: 5_000, WindowUops: 5_000, Workers: 1}}
	r := NewRunner(opts)
	plan := r.Plan(func(r *Runner) { Figure9(r) })
	if len(plan) != 10 {
		t.Fatalf("figure-9 plan has %d runs, want 10", len(plan))
	}
	r.Prewarm(plan, 2)
	if got := pl.count("bbv-profile"); got != 2 {
		t.Errorf("%d bbv-profile passes for %d planned runs over 2 benches, want 2", got, len(plan))
	}
	wall := r.ProfileWallSec()
	if wall <= 0 {
		t.Fatal("BBV profiling recorded no wall time")
	}
	if res := r.Result("mcf", Baseline.WithPF()); res.Sampling == nil || res.Sampling.Phases == 0 {
		t.Fatalf("mcf/PF is not phase-sampled: %+v", res.Sampling)
	}
	if got := pl.count("bbv-profile"); got != 2 {
		t.Errorf("a new configuration of a profiled bench re-profiled it (%d passes)", got)
	}
	if got := r.ProfileWallSec(); got != wall {
		t.Errorf("reusing the memoized plan added profiling time: %v s -> %v s", wall, got)
	}
}

// ffLog counts fast-forward phases, the checkpoint walks, per bench.
type ffLog struct {
	phaseLog
	walks map[string]int
}

func (l *ffLog) Phase(bench, config string, interval int, phase string, goal uint64) {
	l.phaseLog.Phase(bench, config, interval, phase, goal)
	if phase == "fast-forward" {
		l.mu.Lock()
		l.walks[bench]++
		l.mu.Unlock()
	}
}

func (l *ffLog) count(bench string) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.walks[bench]
}

// heldWalks reports how many checkpoint walks the runner still holds for
// bench.
func heldWalks(r *Runner, bench string) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	if e := r.profiles[bench]; e != nil {
		return len(e.walks)
	}
	return 0
}

// TestCheckpointWalkOncePerBench checks the checkpoint walk is shared per
// bench: a phase-sampled Figure 9 plus Base+PF plan over two benches,
// prewarmed on two workers, walks each bench once; the bench's checkpoints
// are held until its last planned pair has run and released after; and an
// unplanned Result walks privately to the same bytes a fresh runner gives.
func TestCheckpointWalkOncePerBench(t *testing.T) {
	benches := []string{"mcf", "libquantum"}
	opts := Options{MeasureUops: 20_000, WarmupUops: 10_000, Benchmarks: benches,
		Sample: &SampleOptions{Mode: SamplePhase, Intervals: 4, WarmupUops: 5_000, WindowUops: 5_000, Workers: 2}}
	fl := &ffLog{walks: map[string]int{}}
	withLog := opts
	withLog.Monitor = fl
	r := NewRunner(withLog)
	plan := r.Plan(func(r *Runner) {
		Figure9(r)
		for _, b := range benches {
			r.Result(b, Baseline.WithPF())
		}
	})
	if len(plan) != 12 {
		t.Fatalf("plan has %d runs, want 12", len(plan))
	}
	if last := plan[len(plan)-1]; last.Bench != "libquantum" || last.Config != Baseline.WithPF() {
		t.Fatalf("last planned run is %s/%s, want libquantum/PF", last.Bench, last.Config.Label())
	}
	r.Prewarm(plan[:len(plan)-1], 2)
	if got := heldWalks(r, "mcf"); got != 0 {
		t.Errorf("mcf holds %d walks after its last planned pair ran, want 0", got)
	}
	if got := heldWalks(r, "libquantum"); got != 1 {
		t.Errorf("libquantum holds %d walks with a planned pair still to run, want 1", got)
	}
	r.Prewarm(plan[len(plan)-1:], 2)
	for _, b := range benches {
		if got := fl.count(b); got != 1 {
			t.Errorf("%s: %d checkpoint walks for its 6 planned runs, want 1", b, got)
		}
		if got := heldWalks(r, b); got != 0 {
			t.Errorf("%s holds %d walks after every planned pair ran, want 0", b, got)
		}
	}

	// Planned results equal a fresh runner's private walks, and so does an
	// unplanned pair asked of the runner afterwards.
	fresh := NewRunner(opts)
	extra := PlannedRun{Bench: "mcf", Config: Runahead.WithPF()}
	for _, pr := range append([]PlannedRun{plan[1], plan[len(plan)-1]}, extra) {
		got, err := json.Marshal(r.Result(pr.Bench, pr.Config))
		if err != nil {
			t.Fatal(err)
		}
		want, err := json.Marshal(fresh.Result(pr.Bench, pr.Config))
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want) {
			t.Errorf("%s/%s differs from a private walk's result", pr.Bench, pr.Config.Label())
		}
	}
	if got := fl.count("mcf"); got != 2 {
		t.Errorf("mcf made %d checkpoint walks, want 2: the shared one and the unplanned pair's own", got)
	}
	if got := heldWalks(r, "mcf"); got != 0 {
		t.Errorf("a private walk was kept: mcf holds %d walks", got)
	}
}

// TestSampledProgressGoalNoWrap runs the sampled engine with a warmup far
// larger than the first checkpoint offset and checks no Monitor phase goal
// wraps around uint64.
func TestSampledProgressGoalNoWrap(t *testing.T) {
	gm := &goalMonitor{}
	opts := Options{MeasureUops: 20_000, WarmupUops: 4_000, Monitor: gm,
		Sample: &SampleOptions{Intervals: 4, WarmupUops: 1 << 40, Workers: 2}}
	r := NewRunner(opts)
	res := r.Result("mcf", Baseline)
	if res.Stats.Committed == 0 {
		t.Fatal("sampled run committed nothing")
	}
	gm.mu.Lock()
	defer gm.mu.Unlock()
	if len(gm.goals) == 0 {
		t.Fatal("monitor saw no planner-interval phases")
	}
	for _, goal := range gm.goals {
		if goal > math.MaxUint64/2 {
			t.Errorf("monitor phase goal wrapped: %d", goal)
		}
	}
}

// synthPlan builds a phase plan with two planted phases over a 16-window
// grid: windows alternate between two behaviors in a 3:1 uop-weight split.
// When ragged, the last grid window carries a remainder (as profilePhases
// produces when the region doesn't divide evenly), which makes the chunk
// weights non-uniform.
func synthPlan(t *testing.T, ragged bool) *phases.Plan {
	t.Helper()
	const w = 16
	windows := make([]phases.Window, w)
	vecs := make([]phases.Vector, w)
	for i := 0; i < w; i++ {
		windows[i] = phases.Window{Start: uint64(100_000 + i*10_000), Len: 10_000}
		if ragged && i == w-1 {
			windows[i].Len = 15_000
		}
		if i%4 == 3 {
			vecs[i] = phases.Vector{0, 1, 0}
		} else {
			vecs[i] = phases.Vector{1, 0, 0}
		}
	}
	pl := phases.Build(windows, vecs, 4, 0)
	if pl.K() != 2 {
		t.Fatalf("synthetic plan clustered into %d phases, want 2", pl.K())
	}
	return pl
}

// TestPlanFromPhasesBudgetAndWeights checks the phase-mode window planner:
// full interval budget spent, detailed cost never above even mode's, window
// weights summing exactly to the region, ascending start order, and no
// window overrunning the region end. The ragged grid keeps the chunk weights
// distinct; a uniform-weight plan is exercised by
// TestPlanFromPhasesUniformCollapse instead.
func TestPlanFromPhasesBudgetAndWeights(t *testing.T) {
	pl := synthPlan(t, true)
	so := SampleOptions{Mode: SamplePhase, Intervals: 4, WarmupUops: 5_000, WindowUops: 8_000}
	regionEnd := uint64(100_000 + 15*10_000 + 15_000)
	cks := planFromPhases(pl, so, regionEnd)

	if len(cks) != so.Intervals {
		t.Fatalf("planner spent %d windows of the %d budget", len(cks), so.Intervals)
	}
	even := planEven(100_000, 165_000, so)
	if du, de := detailedUops(cks), detailedUops(even); du > de {
		t.Errorf("phase plan costs %d detailed uops, above even mode's %d", du, de)
	}
	var weight uint64
	var prevStart uint64
	for i, ck := range cks {
		if ck.id != i {
			t.Errorf("checkpoint %d has id %d", i, ck.id)
		}
		if i > 0 && ck.start <= prevStart {
			t.Errorf("checkpoint %d start %d not after previous %d (fast-forward cannot stream)", i, ck.start, prevStart)
		}
		prevStart = ck.start
		if ck.start+ck.measure > regionEnd {
			t.Errorf("checkpoint %d overruns region end: [%d, %d) vs %d", i, ck.start, ck.start+ck.measure, regionEnd)
		}
		// The scaled contribution is measure * wnum/wden = the chunk weight.
		weight += ck.wnum
	}
	if weight != 165_000 {
		t.Errorf("window weights sum to %d uops, want the whole region (165000): no double-counting, no gaps", weight)
	}
}

// TestPlanFromPhasesUniformCollapse checks that a plan whose windows all
// carry the same weight ratio collapses to unit weights: uniform weights
// cancel in every ratio metric, and unit weights route the merge through the
// unscaled (rounding-free) path, so such plans stay bit-compatible with even
// mode instead of differing by per-counter rounding.
func TestPlanFromPhasesUniformCollapse(t *testing.T) {
	pl := synthPlan(t, false) // equal grid windows -> equal chunk weights
	so := SampleOptions{Mode: SamplePhase, Intervals: 4, WarmupUops: 5_000, WindowUops: 8_000}
	cks := planFromPhases(pl, so, 100_000+16*10_000)
	if len(cks) != so.Intervals {
		t.Fatalf("planner spent %d windows of the %d budget", len(cks), so.Intervals)
	}
	for i, ck := range cks {
		if ck.wnum != 1 || ck.wden != 1 {
			t.Errorf("checkpoint %d: uniform plan kept scaled weight %d/%d, want 1/1", i, ck.wnum, ck.wden)
		}
	}
}

// TestPhaseSampledWithinCI is the weighted-merge property test: on seed
// kernels, the phase-weighted IPC reproduces the full-detail IPC within the
// reported confidence interval. Windows start from the fast-forward's
// functionally warmed caches and predictor.
func TestPhaseSampledWithinCI(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	opts := Options{MeasureUops: 120_000, WarmupUops: 60_000}
	full := NewRunner(opts)
	popts := opts
	popts.Sample = &SampleOptions{Mode: SamplePhase, Intervals: 4, WarmupUops: 20_000, WindowUops: 15_000, Workers: 4}
	phase := NewRunner(popts)

	// gcc and h264 are the cold-start regression: their footprints and
	// branch history outlive a short detailed warmup, so windows restored
	// from cold checkpoints measured them well outside the interval.
	for _, bench := range []string{"mcf", "libquantum", "gcc", "h264"} {
		for _, rc := range []RunConfig{Baseline, BufferCC} {
			f := full.Result(bench, rc)
			p := phase.Result(bench, rc)
			if p.Sampling == nil || p.Sampling.Mode != SamplePhase {
				t.Fatalf("%s/%s: phase-sampled result carries no phase SamplingInfo: %+v", bench, rc.Label(), p.Sampling)
			}
			ci := p.Sampling.CI("IPC")
			if ci == nil {
				t.Fatalf("%s/%s: no IPC confidence interval", bench, rc.Label())
			}
			t.Logf("%s/%s: full IPC %.4f, phase IPC %.4f, CI [%.4f, %.4f], %d phases, dispersion %.4f",
				bench, rc.Label(), f.IPC, p.IPC, ci.Lo, ci.Hi, p.Sampling.Phases, p.Sampling.Dispersion)
			if math.Abs(ci.Mean-p.IPC) > 1e-9 {
				t.Errorf("%s/%s: CI mean %.6f disagrees with merged IPC %.6f", bench, rc.Label(), ci.Mean, p.IPC)
			}
			if ci.Lo > ci.Hi || ci.Lo < 0 {
				t.Errorf("%s/%s: malformed CI [%v, %v]", bench, rc.Label(), ci.Lo, ci.Hi)
			}
			if f.IPC < ci.Lo || f.IPC > ci.Hi {
				t.Errorf("%s/%s: full-detail IPC %.4f outside reported CI [%.4f, %.4f]",
					bench, rc.Label(), f.IPC, ci.Lo, ci.Hi)
			}
		}
	}
}

// statsBytes serializes merged run statistics for byte-level comparison.
func statsBytes(t *testing.T, res *Result) []byte {
	t.Helper()
	var w snapshot.Writer
	if err := res.Stats.SnapshotTo(&w); err != nil {
		t.Fatal(err)
	}
	return w.Bytes()
}

// TestPhaseSampledDeterministic is the clustering determinism test: two
// independent phase-sampled runs of the same pair must agree bit-for-bit —
// same phase assignments and weights, byte-identical merged counters.
func TestPhaseSampledDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	mk := func() *Result {
		opts := Options{MeasureUops: 80_000, WarmupUops: 40_000,
			Sample: &SampleOptions{Mode: SamplePhase, Intervals: 4, WarmupUops: 10_000, WindowUops: 10_000, Workers: 4}}
		return NewRunner(opts).Result("mcf", BufferCC)
	}
	a, b := mk(), mk()
	if !reflect.DeepEqual(a.Sampling, b.Sampling) {
		t.Errorf("SamplingInfo differs between identical runs:\n%+v\n%+v", a.Sampling, b.Sampling)
	}
	ab, bb := statsBytes(t, a), statsBytes(t, b)
	if string(ab) != string(bb) {
		t.Error("merged counters differ byte-for-byte between identical phase-sampled runs")
	}
	if a.IPC != b.IPC || a.MPKI != b.MPKI || a.DRAMRequests != b.DRAMRequests {
		t.Errorf("derived metrics differ: IPC %v/%v MPKI %v/%v DRAM %v/%v",
			a.IPC, b.IPC, a.MPKI, b.MPKI, a.DRAMRequests, b.DRAMRequests)
	}
}

// TestReportJSONNoNaN is the zero-denominator regression test: a claims
// report over a benchmark subset that never enters runahead (an empty
// medium+high set) must marshal cleanly — encoding/json rejects NaN and Inf,
// so any unguarded 0/0 in the claim math fails this test.
func TestReportJSONNoNaN(t *testing.T) {
	r := NewRunner(Options{MeasureUops: 1_000, Benchmarks: []string{"povray"}})
	tb := Report(r)
	if _, err := json.Marshal(tb); err != nil {
		t.Fatalf("claims report with empty medium+high subset does not marshal: %v", err)
	}
	for _, row := range tb.Rows {
		for _, cell := range row {
			if strings.Contains(cell, "NaN") || strings.Contains(cell, "Inf") {
				t.Fatalf("claims table carries %q: %v", cell, row)
			}
		}
	}
}

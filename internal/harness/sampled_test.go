package harness

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"runaheadsim/internal/core"
	"runaheadsim/internal/energy"
	"runaheadsim/internal/prog"
	"runaheadsim/internal/stats"
	"runaheadsim/internal/workload"
)

// TestPlanCollectsRuns checks planning mode records each distinct pair once,
// in first-request order, without simulating anything.
func TestPlanCollectsRuns(t *testing.T) {
	calls := int32(0)
	r := NewRunner(Options{MeasureUops: 1_000, Progress: func(string, string) { atomic.AddInt32(&calls, 1) }})
	runs := r.Plan(func(r *Runner) {
		r.Result("mcf", Baseline)
		r.Result("mcf", BufferCC)
		r.Result("mcf", Baseline) // duplicate: must collapse
		r.Result("lbm", Baseline)
	})
	if len(runs) != 3 {
		t.Fatalf("planned %d runs, want 3: %+v", len(runs), runs)
	}
	if runs[0].Bench != "mcf" || runs[0].Config != Baseline ||
		runs[1].Config != BufferCC || runs[2].Bench != "lbm" {
		t.Fatalf("planned runs out of order: %+v", runs)
	}
	if atomic.LoadInt32(&calls) != 0 {
		t.Fatal("planning mode must not simulate (Progress fired)")
	}
	if len(r.cache) != 0 {
		t.Fatal("planning mode must not populate the cache")
	}
}

// TestPlaceholderSurvivesFigureBuilders runs every experiment builder in
// planning mode: placeholders must not trip any dereference or division in
// the figure code, and the plan must cover a plausible run count.
func TestPlaceholderSurvivesFigureBuilders(t *testing.T) {
	r := NewRunner(Options{MeasureUops: 1_000, Benchmarks: []string{"mcf", "lbm"}})
	runs := r.Plan(func(r *Runner) {
		for _, e := range Experiments() {
			e.Build(r)
		}
	})
	if len(runs) < 10 {
		t.Fatalf("full experiment plan only has %d runs", len(runs))
	}
}

// TestPrewarmParallelByteIdentical checks the satellite guarantee: a sweep
// prewarmed on N workers renders byte-identically to a purely sequential one.
func TestPrewarmParallelByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	opts := Options{MeasureUops: 6_000, WarmupUops: 6_000, Benchmarks: []string{"mcf", "libquantum"}}
	render := func(r *Runner) string {
		var sb strings.Builder
		for _, tb := range []Table{Figure9(r), Figure12(r)} {
			tb.Render(&sb)
		}
		return sb.String()
	}

	seq := NewRunner(opts)
	want := render(seq)

	par := NewRunner(opts)
	runs := par.Plan(func(r *Runner) { render(r) })
	par.Prewarm(runs, 4)
	if got := render(par); got != want {
		t.Errorf("parallel prewarmed sweep differs from sequential:\n--- sequential ---\n%s\n--- parallel ---\n%s", want, got)
	}
}

// TestResultSingleFlight checks concurrent Result calls for one pair share a
// single simulation.
func TestResultSingleFlight(t *testing.T) {
	var sims int32
	r := NewRunner(Options{MeasureUops: 3_000, WarmupUops: 3_000,
		Progress: func(string, string) { atomic.AddInt32(&sims, 1) }})
	var wg sync.WaitGroup
	results := make([]*Result, 8)
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = r.Result("mcf", Baseline)
		}(i)
	}
	wg.Wait()
	for _, res := range results[1:] {
		if res != results[0] {
			t.Fatal("concurrent identical runs returned distinct results")
		}
	}
	if n := atomic.LoadInt32(&sims); n != 1 {
		t.Fatalf("pair simulated %d times, want 1", n)
	}
}

// TestSampledMatchesFullRun checks the acceptance bound: the sampled engine
// reproduces the full detailed run's IPC within the documented sampling
// error, in baseline and runahead-buffer modes.
func TestSampledMatchesFullRun(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	const tolerancePct = 15 // documented sampling error bound (EXPERIMENTS.md)
	opts := Options{MeasureUops: 120_000, WarmupUops: 60_000}
	full := NewRunner(opts)
	sopts := opts
	sopts.Sample = &SampleOptions{Intervals: 4, WarmupUops: 20_000, Workers: 4}
	sampled := NewRunner(sopts)
	wopts := opts
	wopts.Sample = &SampleOptions{Intervals: 4, WarmupUops: 20_000, WindowUops: 15_000, Workers: 4}
	windowed := NewRunner(wopts) // true sampling: half the region fast-forwarded

	for _, rc := range []RunConfig{Baseline, BufferCC} {
		f := full.Result("mcf", rc)
		s := sampled.Result("mcf", rc)
		w := windowed.Result("mcf", rc)
		relErr := 100 * math.Abs(s.IPC-f.IPC) / f.IPC
		winErr := 100 * math.Abs(w.IPC-f.IPC) / f.IPC
		t.Logf("mcf/%s: full IPC %.3f, sampled IPC %.3f (%.1f%% error), windowed IPC %.3f (%.1f%% error)",
			rc.Label(), f.IPC, s.IPC, relErr, w.IPC, winErr)
		if relErr > tolerancePct {
			t.Errorf("mcf/%s: sampled IPC %.3f vs full %.3f: %.1f%% error exceeds %d%%",
				rc.Label(), s.IPC, f.IPC, relErr, tolerancePct)
		}
		if winErr > tolerancePct {
			t.Errorf("mcf/%s: windowed IPC %.3f vs full %.3f: %.1f%% error exceeds %d%%",
				rc.Label(), w.IPC, f.IPC, winErr, tolerancePct)
		}
		// Each window's Run overshoots by at most one commit group, so the
		// merged total lands within a few uops of the full-run budget.
		if s.Stats.Committed < opts.MeasureUops || s.Stats.Committed > opts.MeasureUops+64 {
			t.Errorf("mcf/%s: sampled measured %d uops, want ~%d", rc.Label(), s.Stats.Committed, opts.MeasureUops)
		}
		if w.Stats.Committed < 60_000 || w.Stats.Committed > 60_064 {
			t.Errorf("mcf/%s: windowed measured %d uops, want ~60000", rc.Label(), w.Stats.Committed)
		}
	}
}

// TestSampledIntervalErrorID checks the error-surfacing satellite: a failing
// detailed window is reported as an error naming its interval id instead of
// killing the worker or being swallowed.
func TestSampledIntervalErrorID(t *testing.T) {
	r := NewRunner(Options{MeasureUops: 2_000, Sample: &SampleOptions{}})
	p := workload.MustLoad("mcf")
	// A checkpoint with no memory image makes the detailed core fault on
	// its first load — a stand-in for any interval-local simulator bug.
	ir := r.runInterval("mcf", "Base", core.DefaultConfig(), p, checkpoint{id: 3, warmup: 500, measure: 500,
		st: prog.ArchState{Index: 0}})
	if ir.err == nil {
		t.Fatal("broken interval produced no error")
	}
	if !strings.Contains(ir.err.Error(), "interval 3") {
		t.Fatalf("interval error does not name its id: %v", ir.err)
	}
}

// TestSampleModeAccuracy is the placement-quality gate: over the figure-9
// plan on mcf and libquantum, phase placement must match or beat even
// placement on max per-run IPC error against full detail, at no greater
// detailed-simulation cost, and neither mode may err by more than 25%.
func TestSampleModeAccuracy(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	opts := Options{MeasureUops: 300_000, Benchmarks: []string{"mcf", "libquantum"}}
	ref := NewRunner(opts)
	plan := ref.Plan(func(r *Runner) { Figure9(r) })
	ref.Prewarm(plan, 2)

	measure := func(mode string) (maxErrPct float64, detailed uint64) {
		o := opts
		o.Sample = &SampleOptions{Mode: mode, Intervals: 4, WindowUops: 40_000, WarmupUops: 20_000, Workers: 1}
		r := NewRunner(o)
		r.Prewarm(plan, 2)
		for _, pr := range plan {
			got, want := r.Result(pr.Bench, pr.Config), ref.Result(pr.Bench, pr.Config)
			if got.Sampling == nil || got.Sampling.Mode != mode {
				t.Fatalf("%s/%s: result is not %s-sampled: %+v", pr.Bench, pr.Config.Label(), mode, got.Sampling)
			}
			detailed += got.Sampling.DetailedUops
			maxErrPct = math.Max(maxErrPct, 100*math.Abs(got.IPC-want.IPC)/want.IPC)
		}
		t.Logf("%s: %d runs, %d detailed uops, max IPC error %.2f%%", mode, len(plan), detailed, maxErrPct)
		return maxErrPct, detailed
	}
	evenErr, evenUops := measure(SampleEven)
	phaseErr, phaseUops := measure(SamplePhase)

	if phaseErr > evenErr {
		t.Errorf("phase placement max IPC error %.2f%% exceeds even placement's %.2f%%", phaseErr, evenErr)
	}
	if phaseUops > evenUops {
		t.Errorf("phase placement simulated %d detailed uops, more than even placement's %d", phaseUops, evenUops)
	}
	for _, m := range []struct {
		mode string
		err  float64
	}{{SampleEven, evenErr}, {SamplePhase, phaseErr}} {
		if m.err > 25 {
			t.Errorf("%s sampling max IPC error %.2f%% is implausibly large", m.mode, m.err)
		}
	}
}

// TestFullDetailMatchesHandDrivenCore pins what a full-detail Result means:
// the same numbers as building the core with core.New, running the warmup,
// resetting the statistics and running the measured region by hand. Every
// read-out is compared, the statistics as snapshot bytes.
func TestFullDetailMatchesHandDrivenCore(t *testing.T) {
	opts := Options{MeasureUops: 30_000, WarmupUops: 20_000}
	r := NewRunner(opts)
	for _, rc := range []RunConfig{Baseline, BufferCC} {
		got := r.Result("mcf", rc)

		c := core.New(configFor(rc), workload.MustLoad("mcf"))
		c.Run(opts.WarmupUops)
		c.ResetStats()
		st := c.Run(opts.MeasureUops)
		h := c.Hierarchy()
		var chains []string
		for _, ch := range c.CachedChains() {
			chains = append(chains, ch.String())
		}
		want := &Result{
			Energy:       energy.Compute(energy.DefaultParams(), energy.Measure(c)),
			IPC:          st.IPC(),
			MPKI:         1000 * stats.Div(float64(h.LLCDemandMisses), float64(st.Committed)),
			MemStallPct:  100 * stats.Div(float64(st.MemStallCycles), float64(st.Cycles)),
			DRAMRequests: h.TotalDRAMRequests(),
			Chains:       chains,
		}

		if !bytes.Equal(statsBytes(t, got), statsBytes(t, &Result{Stats: st})) {
			t.Errorf("mcf/%s: Result stats differ from the hand-driven core's", rc.Label())
		}
		if got.IPC != want.IPC || got.MPKI != want.MPKI || got.MemStallPct != want.MemStallPct ||
			got.DRAMRequests != want.DRAMRequests || got.Energy != want.Energy {
			t.Errorf("mcf/%s: read-out differs:\n got IPC %v MPKI %v stall %v DRAM %d energy %+v\nwant IPC %v MPKI %v stall %v DRAM %d energy %+v",
				rc.Label(), got.IPC, got.MPKI, got.MemStallPct, got.DRAMRequests, got.Energy,
				want.IPC, want.MPKI, want.MemStallPct, want.DRAMRequests, want.Energy)
		}
		if !reflect.DeepEqual(got.Chains, want.Chains) {
			t.Errorf("mcf/%s: chains %q, want %q", rc.Label(), got.Chains, want.Chains)
		}
		if got.Sampling != nil || got.Provenance != ProvenanceDetailed {
			t.Errorf("mcf/%s: full-detail result carries sampling %+v, provenance %q", rc.Label(), got.Sampling, got.Provenance)
		}
	}
	if len(r.Result("mcf", BufferCC).Chains) == 0 {
		t.Error("mcf/RB+CC left no chains to compare")
	}
}

// phaseLog records every Monitor phase as "interval:phase".
type phaseLog struct {
	mu     sync.Mutex
	phases []string
}

func (pl *phaseLog) RunStart(_, _ string)                  {}
func (pl *phaseLog) RunDone(_, _ string)                   {}
func (pl *phaseLog) Progress(_, _ string, _ int, _ uint64) {}
func (pl *phaseLog) Done(_, _ string, _ int)               {}
func (pl *phaseLog) Phase(_, _ string, interval int, phase string, _ uint64) {
	pl.mu.Lock()
	pl.phases = append(pl.phases, fmt.Sprintf("%d:%s", interval, phase))
	pl.mu.Unlock()
}

// count returns how many times the named phase was entered, on any interval.
func (pl *phaseLog) count(phase string) int {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	n := 0
	for _, p := range pl.phases {
		if strings.HasSuffix(p, ":"+phase) {
			n++
		}
	}
	return n
}

// TestFullDetailMonitorAndFlightDump pins how a full-detail run shows up
// outside its Result: it reports to the Monitor as interval -1 with no
// fast-forward phase, and a dying run writes flight-<bench>-<label>.jsonl
// and names the dump in its panic.
func TestFullDetailMonitorAndFlightDump(t *testing.T) {
	pl := &phaseLog{}
	NewRunner(Options{MeasureUops: 2_000, WarmupUops: 2_000, Monitor: pl}).Result("mcf", Baseline)
	if want := []string{"-1:warmup", "-1:measure"}; !reflect.DeepEqual(pl.phases, want) {
		t.Errorf("full-detail run reported phases %q, want %q", pl.phases, want)
	}

	dir := t.TempDir()
	r := NewRunner(Options{MeasureUops: 2_000, WarmupUops: 2_000, WatchdogCycles: 50, FlightDumpDir: dir})
	msg := func() (msg string) {
		defer func() { msg = fmt.Sprint(recover()) }()
		r.Result("mcf", Baseline)
		return ""
	}()
	if !strings.Contains(msg, "watchdog") || !strings.Contains(msg, "flight recorder dumped to") {
		t.Fatalf("dying run panicked with %q, want a watchdog trip naming its flight dump", msg)
	}
	if fi, err := os.Stat(filepath.Join(dir, "flight-mcf-Base.jsonl")); err != nil || fi.Size() == 0 {
		t.Fatalf("flight dump missing or empty: %v", err)
	}
}

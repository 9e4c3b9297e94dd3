// Command runahead-report evaluates every headline quantitative claim of
// the paper against this reproduction and prints a verdict table: paper
// value, measured value, and whether the shape (sign, rough magnitude,
// ordering) reproduces. With -cores it appends the multi-programmed table:
// per-core IPC, weighted speedup, and slowdown fairness for an N-core mix
// sharing one LLC + DRAM, baseline vs runahead buffer.
//
// With -sample the detailed runs behind the verdicts are sampled instead of
// full-detail, and -sample-mode=phase appends a table of per-metric 95%
// confidence intervals next to the phase-weighted estimates.
//
// With -screen the runs are screened through the calibrated analytical twin
// (-twin points at the artifact): only promoted and out-of-domain pairs
// simulate in detail, the rest are twin predictions, and a provenance table
// naming each bench's tier rides along in both text and -json output.
//
//	runahead-report
//	runahead-report -uops 300000
//	runahead-report -sample -sample-mode=phase
//	runahead-report -screen -twin twin_coeffs.json -json
//	runahead-report -cores 4
//	runahead-report -cores 2 -mix libquantum,mcf -json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"

	"runaheadsim/internal/harness"
	"runaheadsim/internal/twin"
	"runaheadsim/internal/workload"
)

func main() {
	var (
		uops     = flag.Uint64("uops", 150_000, "measured micro-ops per run")
		quiet    = flag.Bool("q", false, "suppress progress output")
		asJSON   = flag.Bool("json", false, "emit the verdict table as machine-readable JSON")
		cpiStack = flag.Bool("cpi", false, "also emit the CPI-stack breakdown table")
		cores    = flag.Int("cores", 0, "also emit the multi-programmed table for an N-core mix (0 = skip)")
		mix      = flag.String("mix", "", "kernel mix for -cores, one per core (empty = default memory-bound rotation)")

		sample    = flag.Bool("sample", false, "replace full detailed runs with checkpointed sampled intervals")
		sMode     = flag.String("sample-mode", "even", "sampled window placement: \"even\" (evenly spaced) or \"phase\" (BBV clustering, one weighted window per phase)")
		intervals = flag.Int("intervals", 4, "detailed intervals per sampled run (with -sample); in phase mode, the cap on the phase count")
		sWindow   = flag.Uint64("sample-window", 0, "measured uops per sampled interval (0 = the whole region, split)")
		sWarmup   = flag.Uint64("sample-warmup", 0, "detailed warmup uops per sampled interval (0 = 50000)")
		sPhases   = flag.Int("phases", 0, "pin the phase count in -sample-mode=phase (0 = choose by BIC)")
		sBBV      = flag.Int("bbv-windows", 0, "BBV profiling windows in -sample-mode=phase (0 = 32)")

		useScreen = flag.Bool("screen", false, "screen runs through the calibrated analytical twin; only promoted pairs simulate in detail")
		twinPath  = flag.String("twin", "twin_coeffs.json", "calibrated twin artifact for -screen (from runahead-sweep -calibrate)")
		scTopK    = flag.Int("screen-topk", 3, "with -screen: promote the k largest twin-predicted RB-vs-baseline deltas")
		scUnc     = flag.Float64("screen-uncertain", 10, "with -screen: promote benches whose calibration MAPE exceeds this %")
	)
	flag.Parse()
	members, err := workload.ParseNames(*mix)
	if err != nil {
		fmt.Fprintf(os.Stderr, "-mix: %v\n", err)
		os.Exit(2)
	}

	opts := harness.Options{MeasureUops: *uops}
	if *sample {
		if *sMode != harness.SampleEven && *sMode != harness.SamplePhase {
			fmt.Fprintf(os.Stderr, "unknown -sample-mode %q (want even or phase)\n", *sMode)
			os.Exit(2)
		}
		opts.Sample = &harness.SampleOptions{Mode: *sMode, Intervals: *intervals,
			WindowUops: *sWindow, WarmupUops: *sWarmup,
			Phases: *sPhases, BBVWindows: *sBBV}
	}
	if !*quiet {
		opts.Progress = func(bench, config string) {
			fmt.Fprintf(os.Stderr, "running %-12s %s\n", bench, config)
		}
	}
	r := harness.NewRunner(opts)
	var sc *harness.Screen
	if *useScreen {
		model, err := twin.Load(*twinPath, harness.TwinFingerprint())
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		if model.MeasureUops != 0 && model.MeasureUops != *uops {
			fmt.Fprintf(os.Stderr, "warning: %s was calibrated at %d measured uops, this report runs %d: accuracy scores do not transfer, consider recalibrating\n",
				*twinPath, model.MeasureUops, *uops)
		}
		plan := r.Plan(func(rr *harness.Runner) {
			harness.Report(rr)
			if *cpiStack {
				harness.CPIStack(rr)
			}
		})
		sc, err = harness.BuildScreen(r, plan, harness.ScreenOptions{
			Model: model, TopK: *scTopK, UncertainPct: *scUnc,
		}, runtime.NumCPU())
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		r.SetScreen(sc)
	}
	tables := []harness.Table{harness.Report(r)}
	if *sample && *sMode == harness.SamplePhase {
		tables = append(tables, harness.SamplingTable(r))
	}
	if *cpiStack {
		tables = append(tables, harness.CPIStack(r))
	}
	if sc != nil {
		tables = append(tables, sc.Table())
	}

	// The multi-programmed section renders as a table in text mode; in JSON
	// mode the mix results are emitted as their own objects with per-core
	// stats keyed by core ID, not flattened into table rows.
	var mixResults []*harness.MixResult
	if *cores > 0 || len(members) > 0 {
		if len(members) == 0 {
			members = harness.DefaultMix(*cores)
		} else if *cores > 0 && len(members) != *cores {
			fmt.Fprintf(os.Stderr, "-mix names %d kernels but -cores is %d\n", len(members), *cores)
			os.Exit(2)
		}
		for _, rc := range harness.MixConfigs() {
			mixResults = append(mixResults, r.RunMix(members, rc))
		}
		if !*asJSON {
			tables = append(tables, harness.MixTable(mixResults))
		}
	}

	for _, t := range tables {
		if *asJSON {
			if err := t.WriteJSON(os.Stdout); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			continue
		}
		t.Render(os.Stdout)
	}
	if *asJSON {
		for _, res := range mixResults {
			if err := json.NewEncoder(os.Stdout).Encode(res); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
		}
	}
}

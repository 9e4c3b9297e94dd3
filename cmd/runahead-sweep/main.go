// Command runahead-sweep regenerates the paper's tables and figures as text
// tables. Simulation runs are shared across experiments, so regenerating
// everything costs far less than the sum of its parts. The run set is planned
// up front and simulated on a worker pool (-j); output is byte-identical to a
// sequential sweep. With -sample, each full detailed run is replaced by
// checkpointed sampled intervals (see DESIGN.md, "Checkpointing and sampled
// simulation").
//
// The "report" experiment checks every headline claim of the paper against
// this reproduction: paper value, measured value, and whether the shape
// (sign, rough magnitude, ordering) reproduces. The "sampling" experiment
// lists the 95% confidence intervals of phase-sampled runs.
//
// Examples:
//
//	runahead-sweep                      # everything, default budget
//	runahead-sweep -experiments figure9,figure17
//	runahead-sweep -experiments report,cpi-stack
//	runahead-sweep -experiments report,sampling -sample -sample-mode phase
//	runahead-sweep -uops 300000 -out results.txt
//	runahead-sweep -sample -j 8         # sampled intervals, 8 workers
//	runahead-sweep -cores 4             # 4-core multi-programmed mix
//	runahead-sweep -cores 2 -mix libquantum,mcf
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"

	"runaheadsim/internal/harness"
	"runaheadsim/internal/workload"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(argv []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("runahead-sweep", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		exps      = fs.String("experiments", "all", "comma-separated experiment ids, or \"all\"")
		uops      = fs.Uint64("uops", 150_000, "measured micro-ops per run")
		warmup    = fs.Uint64("warmup", 0, "warmup micro-ops per run (0 = automatic)")
		benches   = fs.String("benchmarks", "", "comma-separated benchmark subset (empty = every figure's full set)")
		out       = fs.String("out", "", "write tables to this file instead of stdout")
		asJSON    = fs.Bool("json", false, "emit the tables as JSON instead of text")
		quiet     = fs.Bool("q", false, "suppress progress output")
		workers   = fs.Int("j", runtime.NumCPU(), "parallel simulation workers")
		sample    = fs.Bool("sample", false, "replace full detailed runs with checkpointed sampled intervals")
		sMode     = fs.String("sample-mode", "even", "sampled window placement: \"even\" (evenly spaced) or \"phase\" (BBV clustering, one weighted window per phase)")
		intervals = fs.Int("intervals", 4, "detailed intervals per sampled run (with -sample); in phase mode, the cap on the phase count")
		sWindow   = fs.Uint64("sample-window", 0, "measured uops per sampled interval (0 = in even mode the whole region, split; in phase mode one BBV grid window)")
		sWarmup   = fs.Uint64("sample-warmup", 0, "detailed warmup uops per sampled interval, after the functional warming of caches and predictor (0 = 10000)")
		sPhases   = fs.Int("phases", 0, "pin the phase count in -sample-mode=phase (0 = choose by BIC)")
		sBBV      = fs.Int("bbv-windows", 0, "BBV profiling windows in -sample-mode=phase (0 = 32)")
		cores     = fs.Int("cores", 1, "multi-programmed mode: cores sharing one LLC+DRAM (2-8; 1 = normal single-core sweep)")
		mix       = fs.String("mix", "", "multi-programmed mode: comma-separated kernel mix, one per core (empty = default memory-bound rotation)")
		fdump     = fs.String("flight-dump", ".", "directory for flight-recorder crash dumps (empty disables)")
	)
	if err := fs.Parse(argv); err != nil {
		return 2
	}
	badList := false
	names := func(flagName, spec string) []string {
		list, err := workload.ParseNames(spec)
		if err != nil {
			fmt.Fprintf(stderr, "-%s: %v\n", flagName, err)
			badList = true
		}
		return list
	}
	benchSet, mixSet := names("benchmarks", *benches), names("mix", *mix)
	if badList {
		return 2
	}

	var w io.Writer = stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		defer f.Close()
		w = f
	}

	opts := harness.Options{MeasureUops: *uops, WarmupUops: *warmup, FlightDumpDir: *fdump, Benchmarks: benchSet}
	if !*quiet {
		opts.Monitor = &progress{w: stderr}
	}
	if *sample {
		if *sMode != harness.SampleEven && *sMode != harness.SamplePhase {
			fmt.Fprintf(stderr, "unknown -sample-mode %q (want even or phase)\n", *sMode)
			return 2
		}
		// Interval-level workers stay at 1: the sweep already keeps -j
		// runs in flight, which parallelizes without oversubscribing.
		opts.Sample = &harness.SampleOptions{Mode: *sMode, Intervals: *intervals,
			WindowUops: *sWindow, WarmupUops: *sWarmup, Workers: 1,
			Phases: *sPhases, BBVWindows: *sBBV}
	}

	if *cores > 1 || len(mixSet) > 0 {
		return runMixMode(*cores, mixSet, opts, w, *asJSON, stderr)
	}

	selected, err := selectExperiments(*exps)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}

	runner := harness.NewRunner(opts)
	plan := runner.Plan(func(r *harness.Runner) {
		for _, e := range selected {
			e.Build(r)
		}
	})
	runner.Prewarm(plan, *workers)

	// Every run is memoized by now, so this render is deterministic and
	// byte-identical to a fully sequential sweep.
	var tables []harness.Table
	for _, e := range selected {
		t := e.Build(runner)
		if *asJSON {
			tables = append(tables, t)
		} else {
			t.Render(w)
		}
	}
	if *asJSON {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(tables); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
	}

	return 0
}

// progress is a harness.Monitor that prints one line per simulated run.
// Prewarm workers report concurrently, and the writer need not be safe for
// concurrent writes.
type progress struct {
	mu sync.Mutex
	w  io.Writer
}

func (p *progress) RunStart(bench, config string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	fmt.Fprintf(p.w, "running %-12s %s\n", bench, config)
}

func (*progress) RunDone(string, string)                    {}
func (*progress) Phase(string, string, int, string, uint64) {}
func (*progress) Done(string, string, int)                  {}

// selectExperiments resolves the -experiments flag against the registry.
func selectExperiments(spec string) ([]harness.Experiment, error) {
	all := harness.Experiments()
	if spec == "all" {
		return all, nil
	}
	want := map[string]bool{}
	for _, id := range strings.Split(spec, ",") {
		want[strings.TrimSpace(id)] = true
	}
	var selected []harness.Experiment
	for _, e := range all {
		if want[e.ID] {
			selected = append(selected, e)
			delete(want, e.ID)
		}
	}
	if len(want) > 0 {
		var unknown []string
		//simlint:allow determinism -- collected ids are sorted before reporting
		for id := range want {
			unknown = append(unknown, id)
		}
		sort.Strings(unknown)
		return nil, fmt.Errorf("unknown experiments: %s", strings.Join(unknown, ", "))
	}
	if len(selected) == 0 {
		return nil, fmt.Errorf("no experiments selected")
	}
	return selected, nil
}

// runMixMode is the multi-programmed entry point: N cores, one kernel each,
// sharing one LLC + DRAM controller, run to a fixed per-core uop quota under
// the baseline and the runahead buffer. It renders the per-core
// IPC/weighted-speedup/fairness table (or, with -json, one object per
// configuration with per-core stats keyed by core ID).
func runMixMode(cores int, mix []string, opts harness.Options, w io.Writer, asJSON bool, stderr io.Writer) int {
	if len(mix) == 0 {
		mix = harness.DefaultMix(cores)
	} else if cores > 1 && len(mix) != cores {
		fmt.Fprintf(stderr, "-mix names %d kernels but -cores is %d\n", len(mix), cores)
		return 2
	}
	if len(mix) < 1 || len(mix) > 8 {
		fmt.Fprintf(stderr, "multi-programmed mode supports 1-8 cores, got %d\n", len(mix))
		return 2
	}
	r := harness.NewRunner(opts)
	var results []*harness.MixResult
	for _, rc := range harness.MixConfigs() {
		results = append(results, r.RunMix(mix, rc))
	}
	if asJSON {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(results); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		return 0
	}
	t := harness.MixTable(results)
	t.Render(w)
	return 0
}

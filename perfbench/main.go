// Command perfbench is the simulator's benchmark. It drives the simulator
// from outside through its packages' entry points, measures host time end to
// end on one of four workloads, and, with --trace 1, the time and counts of
// each layer. See README.md for the workloads and the metrics.
//
//	bash perfbench/run.sh --workload runahead-detail --seed 1 --seconds 15 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"runaheadsim/internal/metrics"
	"runaheadsim/internal/prog"
	"runaheadsim/internal/simcheck"
)

// setupProbes is how many fresh processes each set up the workload once for
// setup_s. workload.Load memoizes programs per process, so only a fresh
// process pays the program build again.
const setupProbes = 7

func main() { os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr)) }

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	wl := fs.String("workload", "", "workload to run: runahead-detail, baseline-detail, sampled-sweep or multicore-mix")
	seed := fs.Uint64("seed", 0, "input seed; 0 runs the named cells from each program's entry")
	seconds := fs.Float64("seconds", 10, "how long to measure")
	traced := fs.Int("trace", 0, "0 reports the end-to-end metrics; 1 reports the per-layer metrics and writes a Chrome trace to .bench_build/perfbench/")
	probe := fs.Bool("setup-probe", false, "set up the workload once, print the set-up seconds and exit (used for setup_s)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *traced != 0 && *traced != 1 {
		fmt.Fprintln(stderr, "perfbench: --trace takes 0 or 1")
		return 2
	}
	if err := checkBuild(); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	def, err := findWorkload(*wl)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	o := options{def: def, seed: *seed, seconds: *seconds, trace: *traced == 1, scale: 1,
		probes: setupProbes}
	if *probe {
		sec, err := setupOnce(o)
		if err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		fmt.Fprintln(stdout, strconv.FormatFloat(sec, 'g', -1, 64))
		return 0
	}
	if o.trace {
		o.traceOut = filepath.Join(".bench_build", "perfbench", fmt.Sprintf("trace-%s-seed%d.json", def.name, *seed))
	}
	res, record, err := run(o, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	enc := json.NewEncoder(stdout)
	if err := enc.Encode(record); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if err := enc.Encode(res); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	return 0
}

// checkBuild refuses a build that would time a different program: the
// simcheck tag puts the lockstep oracle on every run, and the nometrics tag
// makes every registry-backed count read zero.
func checkBuild() error {
	if simcheck.TagEnabled {
		return errors.New("built with the simcheck tag, which runs the lockstep oracle on every simulation")
	}
	if !metrics.Enabled {
		return errors.New("built with the nometrics tag, so the registry-backed counts would read zero")
	}
	return nil
}

type options struct {
	def      workloadDef
	seed     uint64
	seconds  float64
	trace    bool
	traceOut string
	scale    float64 // multiplies every run length
	probes   int     // fresh-process set-ups for setup_s; 0 takes the passes' own set-up times
	// reference, when set, replaces the interpreter cells are checked against.
	reference func(p *prog.Program, start *prog.ArchState, n uint64) *prog.Interp
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of output.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// envelope identifies what produced a record: the code, the toolchain and
// host, and the input seed.
func envelope(workload string, seed uint64) map[string]any {
	commit, dirty := "unknown", "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				commit = s.Value
			case "vcs.modified":
				dirty = s.Value
			}
		}
	}
	return map[string]any{
		"commit": commit, "dirty": dirty,
		"go": runtime.Version(), "goos": runtime.GOOS, "goarch": runtime.GOARCH,
		"num_cpu": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"workload": workload, "seed": seed,
	}
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// setupOnce builds the workload's machines once in this process and returns
// the set-up seconds.
func setupOnce(o options) (float64, error) {
	b, err := newBench(o.def, o.seed, o.scale)
	if err != nil {
		return 0, err
	}
	out := o.def.pass(b, nil, 0, true)
	if out.failed > 0 {
		return 0, fmt.Errorf("set-up failed: %s", strings.Join(out.errs, "; "))
	}
	return out.setup.Seconds(), nil
}

// probeSetup runs setupOnce in a fresh copy of this program and waits for it.
func probeSetup(o options) (float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	cmd := exec.Command(exe, "--workload", o.def.name, "--seed", strconv.FormatUint(o.seed, 10), "--setup-probe")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return 0, fmt.Errorf("set-up probe: %w", err)
	}
	return strconv.ParseFloat(strings.TrimSpace(string(out)), 64)
}

// run measures one workload: a warm-up pass, then passes until o.seconds
// have passed — all untraced, or alternating untraced and traced with
// o.trace. Every pass checks every cell.
func run(o options, log io.Writer) (*result, map[string]any, error) {
	b, err := newBench(o.def, o.seed, o.scale)
	if err != nil {
		return nil, nil, err
	}
	if o.reference != nil {
		b.reference = o.reference
	}
	var probes []float64
	for i := 0; i < o.probes; i++ {
		s, err := probeSetup(o)
		if err != nil {
			return nil, nil, err
		}
		probes = append(probes, s)
	}

	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	var (
		attempted, failed int
		errs              []string
		first             map[string]string // per cell, the counts of its first run
		plain, traced     []*passOut
		spanTotals        []map[string]float64
		selfSum           = map[string]float64{}
	)
	pass := func(withTrace bool) (*passOut, error) {
		runtime.GC() // every pass starts from the same heap
		before := readRegistry()
		var t *tracer
		root, mark := 0, 0
		if withTrace {
			t, mark = tr, tr.len()
			root = t.begin("bench.pass", 0, 0)
		}
		out := o.def.pass(b, t, root, false)
		t.end(root)
		reg, err := regDelta(before, readRegistry())
		if err != nil {
			return nil, err
		}
		out.t.reg = reg
		if first == nil {
			first = out.digests
		}
		for _, k := range sortedKeys(out.digests) {
			d := out.digests[k]
			if f, ok := first[k]; ok && f != d {
				out.fail(k, fmt.Errorf("simulated counts differ between passes: %s then %s", f, d))
			} else if !ok {
				first[k] = d
			}
		}
		attempted += out.cells
		failed += out.failed
		if len(errs) < 8 {
			errs = append(errs, out.errs...)
		}
		if withTrace {
			total, self := layerTimes(t.since(mark))
			spanTotals = append(spanTotals, total)
			for _, k := range sortedKeys(self) {
				selfSum[k] += self[k]
			}
		}
		return out, nil
	}

	if _, err := pass(false); err != nil { // warm-up: checked, not timed
		return nil, nil, err
	}
	start := time.Now()
	for i := 0; ; i++ {
		withTrace := o.trace && i%2 == 1
		out, err := pass(withTrace)
		if err != nil {
			return nil, nil, err
		}
		if withTrace {
			traced = append(traced, out)
		} else {
			plain = append(plain, out)
		}
		if time.Since(start).Seconds() >= o.seconds && (!o.trace || len(traced) > 0) {
			break
		}
	}

	var walls, setups []float64
	for _, p := range plain {
		walls = append(walls, p.wall.Seconds())
		setups = append(setups, p.setup.Seconds())
	}
	setup := median(probes)
	if len(probes) == 0 {
		setup = median(setups)
	}
	res := &result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]value{}}
	env := envelope(o.def.name, o.seed)
	record := map[string]any{"record": "perfbench", "envelope": env, "passes": len(plain) + len(traced),
		"wall_s": walls, "pass_setup_s": setups, "probe_setup_s": probes, "errors": errs,
		"cells": cellRecords(plain)}

	if !o.trace {
		wall := passWall(plain)
		vals := map[string]float64{
			"wall_s":         wall,
			"sim_uops_per_s": div(float64(plain[0].uops), wall),
			"setup_s":        setup,
			"max_rss_mb":     maxRSSMB(),
		}
		for _, d := range endToEnd {
			res.Metrics[d.name] = value{vals[d.name], d.unit}
		}
		return res, record, nil
	}

	per := map[string][]float64{}
	for i, p := range traced {
		lv := layerValues(p, spanTotals[i])
		for _, k := range sortedKeys(lv) {
			per[k] = append(per[k], lv[k])
		}
	}
	vals := map[string]float64{
		"failed_frac":              div(float64(failed), float64(attempted)),
		"bench.trace_overhead_pct": 100 * (div(passWall(traced), passWall(plain)) - 1),
	}
	for _, k := range sortedKeys(per) {
		vals[k] = median(per[k])
	}
	for _, d := range perLayer() {
		v, ok := vals[d.name]
		if !ok {
			return nil, nil, fmt.Errorf("per-layer metric %q was not computed", d.name)
		}
		res.Metrics[d.name] = value{v, d.unit}
	}
	writeSelfTimes(log, selfSum, len(traced))
	if err := writeChromeTrace(o.traceOut, tr, env); err != nil {
		return nil, nil, err
	}
	record["trace_file"] = o.traceOut
	return res, record, nil
}

// passWall is the wall time of one pass on an uncontended host: the sum over
// cells of each cell's fastest run across the passes, or, where the passes do
// not time each cell, the fastest pass. Other tenants slow this host by up to
// half for seconds at a time; a cell needs one clean run among the passes to
// read true, where a median needs most of them clean.
func passWall(passes []*passOut) float64 {
	cells := cellRecords(passes)
	if len(cells) == 0 {
		best := passes[0].wall
		for _, p := range passes {
			best = min(best, p.wall)
		}
		return best.Seconds()
	}
	var sum float64
	for _, c := range cells {
		sum += c.BestS
	}
	return sum
}

type cellRecord struct {
	Cell       string    `json:"cell"`
	BestS      float64   `json:"best_s"` // fastest over the passes
	Cycles     int64     `json:"cycles"`
	NsPerCycle float64   `json:"ns_per_cycle"` // of the fastest run
	Runs       []float64 `json:"runs"`         // per pass
}

// cellRecords reports, per single-core or multicore cell, the host seconds
// of its run call in each pass and the cycles it simulated.
func cellRecords(passes []*passOut) []cellRecord {
	var out []cellRecord
	for _, name := range sortedKeys(passes[0].cellRun) {
		cycles := passes[0].cellCycles[name]
		var runs []float64
		best := math.Inf(1)
		for _, p := range passes {
			if s, ok := p.cellRun[name]; ok {
				runs = append(runs, s)
				best = min(best, s)
			}
		}
		out = append(out, cellRecord{name, best, cycles, div(best*1e9, float64(cycles)), runs})
	}
	return out
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	//simlint:allow determinism -- keys are sorted before use
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// writeSelfTimes prints each layer's self time, the mean per traced pass,
// largest first.
func writeSelfTimes(w io.Writer, self map[string]float64, passes int) {
	names := sortedKeys(self)
	sort.SliceStable(names, func(i, j int) bool { return self[names[i]] > self[names[j]] })
	fmt.Fprintf(w, "layer self time, mean of %d traced passes:\n", passes)
	for _, k := range names {
		fmt.Fprintf(w, "  %-24s %9.4f s\n", k, self[k]/float64(passes))
	}
}

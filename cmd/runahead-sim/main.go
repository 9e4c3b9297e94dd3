// Command runahead-sim runs one benchmark under one runahead configuration
// and prints the headline metrics (plus, optionally, every raw counter).
//
// Examples:
//
//	runahead-sim -bench mcf -system Hybrid
//	runahead-sim -bench sphinx3 -system RB+CC+PF -uops 300000
//	runahead-sim -list
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"runaheadsim"
	"runaheadsim/internal/core"
	"runaheadsim/internal/harness"
	"runaheadsim/internal/prog"
	"runaheadsim/internal/simcheck"
	"runaheadsim/internal/stats"
	"runaheadsim/internal/trace"
	"runaheadsim/internal/workload"
)

func main() {
	var (
		bench  = flag.String("bench", "mcf", "benchmark name (see -list)")
		system = flag.String("system", "Base", "simulated system: "+strings.Join(runaheadsim.Systems(), " | "))
		uops   = flag.Uint64("uops", 150_000, "measured micro-ops")
		warmup = flag.Uint64("warmup", 0, "warmup micro-ops (0 = automatic)")
		dump   = flag.Bool("stats", false, "dump raw counters")
		chains = flag.Bool("dumpchains", false, "print the dependence chains left in the chain cache")
		trace  = flag.Int64("trace", 0, "emit a cycle-by-cycle pipeline trace for the first N cycles")
		trFmt  = flag.String("trace-format", "", "trace format: text | jsonl | chrome (implies -trace 10000 when -trace is unset)")
		trOut  = flag.String("trace-out", "", "write the trace to this file (default stdout)")
		tlEach = flag.Int64("timeline", 0, "sample IPC/occupancy/mode every N cycles and export the timeline")
		tlOut  = flag.String("timeline-out", "", "write the timeline to this file (default stdout)")
		tlFmt  = flag.String("timeline-format", "csv", "timeline format: csv | json")
		check  = flag.Bool("check", simcheck.TagEnabled, "run the simcheck sanitizer (lockstep oracle + structural invariants)")
		ckOut  = flag.String("checkpoint-out", "", "simulate warmup+uops, drain, and write a machine snapshot to this file")
		restr  = flag.String("restore", "", "restore a machine snapshot (same -bench/-system flags) and simulate -uops more micro-ops")
		list   = flag.Bool("list", false, "list benchmarks and exit")
		all    = flag.Bool("all-systems", false, "run every system on the benchmark and print a comparison")
		pipe   = flag.Bool("pipeline", false, "print the Figure 6 pipeline diagram and exit")
		disasm = flag.Bool("disasm", false, "print the benchmark's program listing and exit")
		showEn = flag.Bool("energy", false, "print the energy breakdown by component")
		wdog   = flag.Int64("watchdog", 0, "override the deadlock watchdog: no-progress cycle budget (<0 disables, 0 = default)")
		fdump  = flag.String("flight-dump", ".", "directory for flight-recorder crash dumps (empty disables)")
	)
	flag.Parse()

	// A dying simulation panics with full context (watchdog trips, simcheck
	// violations); by then the flight recorder has already been dumped.
	// Surface it as a clean fatal error instead of a raw Go traceback.
	defer func() {
		if rec := recover(); rec != nil {
			fmt.Fprintf(os.Stderr, "runahead-sim: fatal: %v\n", rec)
			os.Exit(2)
		}
	}()

	if *list {
		for _, n := range runaheadsim.Benchmarks() {
			fmt.Println(n)
		}
		return
	}

	if *pipe {
		fmt.Print(pipelineDiagram)
		return
	}

	var err error
	switch {
	case *all:
		err = compareSystems(*bench, *uops, *warmup, *wdog, *fdump)
	case *disasm:
		var p *prog.Program
		if p, err = workload.Load(*bench); err == nil {
			fmt.Print(prog.Disasm(p))
		}
	case *ckOut != "":
		err = checkpointRun(*bench, *system, *uops, *warmup, *ckOut, *check)
	case *restr != "":
		err = restoreRun(*restr, *bench, *system, *uops, *check)
	case *trace > 0 || *trFmt != "" || *trOut != "":
		cycles := *trace
		if cycles <= 0 {
			cycles = 10_000
		}
		err = tracePipeline(*bench, *system, cycles, *trFmt, *trOut, *check, *wdog, *fdump)
	default:
		err = report(runaheadsim.Config{
			Benchmark:        *bench,
			System:           *system,
			MeasureUops:      *uops,
			WarmupUops:       *warmup,
			TimelineInterval: *tlEach,
			Check:            *check,
			WatchdogCycles:   *wdog,
			FlightDumpDir:    *fdump,
		}, *showEn, *chains, *dump, *tlFmt, *tlOut)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// report runs cfg and prints its headline metrics, then whichever of the
// energy breakdown, the cached chains, the raw counters and the timeline
// were asked for.
func report(cfg runaheadsim.Config, energy, chains, counters bool, tlFmt, tlOut string) error {
	res, err := runaheadsim.Run(cfg)
	if err != nil {
		return err
	}
	fmt.Printf("benchmark          %s\n", res.Benchmark)
	fmt.Printf("system             %s\n", res.System)
	fmt.Printf("committed uops     %d in %d cycles\n", res.Committed, res.Cycles)
	fmt.Printf("IPC                %.3f (%+.1f%% vs no-PF baseline)\n", res.IPC, res.IPCDeltaPct)
	fmt.Printf("MPKI               %.1f\n", res.MPKI)
	fmt.Printf("memory stall       %.1f%% of cycles\n", res.MemStallPct)
	fmt.Printf("energy             %.1f uJ (%+.1f%% vs baseline)\n", res.EnergyUJ, res.EnergyDeltaPct)
	fmt.Printf("DRAM requests      %d (%+.1f%% vs baseline)\n", res.DRAMRequests, res.TrafficDeltaPct)
	if res.RunaheadIntervals > 0 {
		fmt.Printf("runahead           %d intervals, %.1f misses/interval\n",
			res.RunaheadIntervals, res.MissesPerInterval)
		if res.RunaheadBufferCycles > 0 {
			fmt.Printf("buffer cycles      %d (%.1f%% of run)\n", res.RunaheadBufferCycles,
				100*float64(res.RunaheadBufferCycles)/float64(res.Cycles))
		}
		if res.ChainCacheHitRate > 0 {
			fmt.Printf("chain cache        %.1f%% hit rate\n", 100*res.ChainCacheHitRate)
		}
	}
	if energy {
		fmt.Println()
		for _, comp := range res.EnergyBreakdown.Components() {
			fmt.Printf("energy %-28s %10.2f uJ (%4.1f%%)\n", comp.Name, comp.UJ, 100*comp.UJ/res.EnergyUJ)
		}
	}
	if chains {
		for _, ch := range res.Chains {
			fmt.Printf("\n%s", ch)
		}
		if len(res.Chains) == 0 {
			fmt.Println("\n(no chains cached; use a runahead-buffer system)")
		}
	}
	if counters {
		fmt.Printf("\n%s", res.Stats.Counters())
	}
	if res.Timeline == nil {
		return nil
	}
	return writeTimeline(res.Timeline, tlFmt, tlOut)
}

// writeTimeline exports the interval samples as CSV or JSON, to a file or
// stdout.
func writeTimeline(tl *stats.Timeline, format, out string) error {
	w := io.Writer(os.Stdout)
	if out != "" {
		f, err := os.Create(out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	} else {
		fmt.Println()
	}
	switch format {
	case "", "csv":
		return tl.WriteCSV(w)
	case "json":
		return tl.WriteJSON(w)
	default:
		return fmt.Errorf("unknown timeline format %q (have csv, json)", format)
	}
}

// tracePipeline drops below the facade to attach a cycle-by-cycle tracer.
func tracePipeline(bench, system string, cycles int64, format, out string, check bool, wdog int64, fdump string) (err error) {
	cfg, p, err := machine(bench, system, wdog)
	if err != nil {
		return err
	}
	w := io.Writer(os.Stdout)
	if out != "" {
		f, err := os.Create(out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	sink, err := trace.NewSink(format, w)
	if err != nil {
		return err
	}
	c := core.New(cfg, p)
	// Crash-safe sink: flush and close the trace even when the run dies
	// mid-stream (watchdog trip, simcheck violation, core bug), so the
	// events leading up to the crash survive on disk — then dump the flight
	// recorder and rethrow for main's fatal handler.
	defer func() {
		rec := recover()
		cerr := c.CloseEventSink()
		if rec != nil {
			if path := harness.WriteFlightDump(fdump, "flight-"+bench+"-"+system, c); path != "" {
				rec = fmt.Sprintf("%v\n  (flight recorder dumped to %s)", rec, path)
			}
			panic(rec)
		}
		if err == nil {
			err = cerr
		}
	}()
	var chk *simcheck.Checker
	if check {
		chk = simcheck.Attach(c, p, simcheck.Options{})
	}
	c.SetEventSink(sink, cycles)
	for c.Now() < cycles {
		c.Cycle()
	}
	if chk != nil {
		chk.Finish()
	}
	return nil
}

// pipelineDiagram is Figure 6: the out-of-order pipeline with the additions
// traditional runahead needs (+) and the further runahead buffer additions
// (*).
const pipelineDiagram = `Figure 6 — the runahead buffer pipeline:

  Fetch -> Decode -> Rename -------> Select/ -> Register -> Execute --> Commit
                       ^             Wakeup     Read(+)     (+)
                       |                        poison      checkpointing,
             Runahead  |                        bits        runahead cache
             Buffer(*) |
                       |
        filled by dependence chain generation(*)
        from the ROB: PC CAM + dest-reg CAM + store-queue CAM (Algorithm 1),
        cached in the 2-entry chain cache(*)

  (+) needed for traditional runahead   (*) added for the runahead buffer
`

// compareSystems runs every system on one runner, so the baseline every
// row is measured against is simulated once, and prints one row per system.
func compareSystems(bench string, uops, warmup uint64, wdog int64, fdump string) error {
	if _, ok := workload.SpecOf(bench); !ok {
		return fmt.Errorf("unknown benchmark %q (see -list)", bench)
	}
	r := harness.NewRunner(harness.Options{MeasureUops: uops, WarmupUops: warmup,
		WatchdogCycles: wdog, FlightDumpDir: fdump})
	base := r.Result(bench, harness.Baseline)
	fmt.Printf("%-22s %8s %10s %13s %11s %10s\n",
		"system", "IPC", "IPC gain", "energy diff", "DRAM diff", "intervals")
	for _, rc := range harness.Systems() {
		res := r.Result(bench, rc)
		fmt.Printf("%-22s %8.3f %9.1f%% %12.1f%% %10.1f%% %10d\n", rc.Label(), res.IPC,
			stats.PctDelta(res.IPC, base.IPC),
			stats.PctDelta(res.Energy.Total(), base.Energy.Total()),
			stats.PctDelta(float64(res.DRAMRequests), float64(base.DRAMRequests)),
			res.Stats.RunaheadIntervals)
	}
	return nil
}

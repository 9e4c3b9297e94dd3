// Command runahead-sim runs one benchmark under one runahead configuration
// and prints the headline metrics (plus, optionally, every raw counter).
//
// Examples:
//
//	runahead-sim -bench mcf -mode hybrid
//	runahead-sim -bench sphinx3 -mode runahead-buffer+cc -pf -uops 300000
//	runahead-sim -list
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"runaheadsim"
	"runaheadsim/internal/core"
	"runaheadsim/internal/harness"
	"runaheadsim/internal/prog"
	"runaheadsim/internal/simcheck"
	"runaheadsim/internal/stats"
	"runaheadsim/internal/telemetry"
	"runaheadsim/internal/trace"
	"runaheadsim/internal/workload"
)

func main() {
	var (
		bench  = flag.String("bench", "mcf", "benchmark name (see -list)")
		mode   = flag.String("mode", "baseline", "baseline | runahead | runahead-buffer | runahead-buffer+cc | hybrid | adaptive-hybrid")
		pf     = flag.Bool("pf", false, "enable the stream prefetcher")
		pfkind = flag.String("pfkind", "stream", "prefetch engine: stream | delta (with -pf and -trace only)")
		enh    = flag.Bool("enh", false, "enable the runahead efficiency enhancements")
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
		restr  = flag.String("restore", "", "restore a machine snapshot (same -bench/-mode flags) and simulate -uops more micro-ops")
		list   = flag.Bool("list", false, "list benchmarks and exit")
		all    = flag.Bool("all-modes", false, "run every runahead mode on the benchmark and print a comparison")
		pipe   = flag.Bool("pipeline", false, "print the Figure 6 pipeline diagram and exit")
		disasm = flag.Bool("disasm", false, "print the benchmark's program listing and exit")
		showEn = flag.Bool("energy", false, "print the energy breakdown by component")
		tele   = flag.String("telemetry-addr", "", "serve /metrics, /progress, /healthz and pprof on this address (e.g. 127.0.0.1:8080)")
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

	var tracker *telemetry.Tracker
	if *tele != "" {
		tracker = telemetry.NewTracker()
		srv, err := telemetry.Start(*tele, nil, tracker)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "telemetry: http://%s/metrics /progress /healthz /debug/pprof/\n", srv.Addr())
	}

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

	if *all {
		compareModes(*bench, *pf, *uops, *warmup, *wdog, *fdump)
		return
	}

	if *disasm {
		p, err := workload.Load(*bench)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Print(prog.Disasm(p))
		return
	}

	if *ckOut != "" {
		os.Exit(checkpointRun(*bench, *mode, *pf, *enh, *pfkind, *uops, *warmup, *ckOut, *check))
	}
	if *restr != "" {
		os.Exit(restoreRun(*restr, *bench, *mode, *pf, *enh, *pfkind, *uops, *check))
	}

	if *trace > 0 || *trFmt != "" || *trOut != "" {
		cycles := *trace
		if cycles <= 0 {
			cycles = 10_000
		}
		if err := tracePipeline(*bench, *mode, *pf, *enh, *pfkind, cycles, *trFmt, *trOut, *check, *wdog, *fdump); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}

	rcfg := runaheadsim.Config{
		Benchmark:        *bench,
		Mode:             runaheadsim.Mode(*mode),
		Prefetcher:       *pf,
		Enhancements:     *enh,
		MeasureUops:      *uops,
		WarmupUops:       *warmup,
		TimelineInterval: *tlEach,
		Check:            *check,
		WatchdogCycles:   *wdog,
		FlightDumpDir:    *fdump,
	}
	if tracker != nil {
		rcfg.Monitor = tracker
	}
	res, err := runaheadsim.Run(rcfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	fmt.Printf("benchmark          %s\n", res.Benchmark)
	fmt.Printf("mode               %s (prefetcher=%v)\n", res.Mode, *pf)
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
	if *showEn {
		fmt.Println()
		for _, comp := range res.EnergyBreakdown.Components() {
			fmt.Printf("energy %-28s %10.2f uJ (%4.1f%%)\n", comp.Name, comp.UJ, 100*comp.UJ/res.EnergyUJ)
		}
	}
	if *chains {
		for _, ch := range res.Chains {
			fmt.Printf("\n%s", ch)
		}
		if len(res.Chains) == 0 {
			fmt.Println("\n(no chains cached; use a runahead-buffer mode)")
		}
	}
	if *dump {
		fmt.Printf("\n%s", res.Stats.Counters())
	}
	if res.Timeline != nil {
		if err := writeTimeline(res.Timeline, *tlFmt, *tlOut); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
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
func tracePipeline(bench, mode string, pf, enh bool, pfKind string, cycles int64, format, out string, check bool, wdog int64, fdump string) (err error) {
	cfg, err := coreConfig(mode, pf, enh, pfKind, wdog)
	if err != nil {
		return err
	}
	p, err := workload.Load(bench)
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
			if path := harness.WriteFlightDump(fdump, "flight-"+bench+"-"+mode, c); path != "" {
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

// compareModes runs every runahead mode and prints one row per system.
func compareModes(bench string, pf bool, uops, warmup uint64, wdog int64, fdump string) {
	fmt.Printf("%-22s %8s %10s %13s %11s %10s\n",
		"system", "IPC", "IPC gain", "energy diff", "DRAM diff", "intervals")
	for _, m := range runaheadsim.Modes() {
		res, err := runaheadsim.Run(runaheadsim.Config{
			Benchmark:      bench,
			Mode:           m,
			Prefetcher:     pf,
			Enhancements:   m == runaheadsim.ModeHybrid || m == runaheadsim.ModeAdaptiveHybrid,
			MeasureUops:    uops,
			WarmupUops:     warmup,
			WatchdogCycles: wdog,
			FlightDumpDir:  fdump,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("%-22s %8.3f %9.1f%% %12.1f%% %10.1f%% %10d\n",
			string(m), res.IPC, res.IPCDeltaPct, res.EnergyDeltaPct, res.TrafficDeltaPct, res.RunaheadIntervals)
	}
}

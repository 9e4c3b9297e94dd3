package main

// Checkpoint/restore entry points: -checkpoint-out runs a benchmark, drains
// the machine to quiescence, and serializes it; -restore rebuilds the
// machine from those bytes and keeps simulating. The printed stats digest
// lets a shell script verify restore fidelity against an uninterrupted run.

import (
	"fmt"
	"os"

	"runaheadsim"
	"runaheadsim/internal/core"
	"runaheadsim/internal/harness"
	"runaheadsim/internal/simcheck"
	"runaheadsim/internal/workload"
)

// coreConfig builds the core configuration for the CLI's mode flags through
// the harness's RunConfig translation, with wdog as the -watchdog override.
func coreConfig(mode string, pf, enh bool, pfKind string, wdog int64) (core.Config, error) {
	m, err := runaheadsim.Mode(mode).CoreMode()
	if err != nil {
		return core.Config{}, err
	}
	rc := harness.RunConfig{Mode: m, Enhancements: enh, Prefetch: pf, PFKind: pfKind}
	return harness.Options{WatchdogCycles: wdog}.CoreConfig(rc), nil
}

// checkpointRun simulates warmup+uops micro-ops, drains, and writes the
// snapshot. Returns a process exit code.
func checkpointRun(bench, mode string, pf, enh bool, pfKind string, uops, warmup uint64, outFile string, check bool) int {
	cfg, err := coreConfig(mode, pf, enh, pfKind, 0)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	p, err := workload.Load(bench)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	c := core.New(cfg, p)
	var chk *simcheck.Checker
	if check {
		chk = simcheck.Attach(c, p, simcheck.Options{})
	}
	spec, _ := workload.SpecOf(bench)
	st := c.Run(harness.Options{WarmupUops: warmup}.Warmup(spec.Class) + uops)
	if err := c.Drain(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	if chk != nil {
		chk.Finish()
	}
	data, err := c.Snapshot()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	if err := os.WriteFile(outFile, data, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	fmt.Printf("checkpoint          %s (%d bytes)\n", outFile, len(data))
	fmt.Printf("benchmark           %s, mode %s\n", bench, mode)
	fmt.Printf("committed uops      %d in %d cycles (drained)\n", st.Committed, c.Now())
	fmt.Printf("resume pc           %#x\n", c.FetchPC())
	fmt.Printf("stats digest        %#x\n", simcheck.StatsDigest(c.Stats()))
	return 0
}

// restoreRun rebuilds a machine from a snapshot and simulates uops more
// micro-ops from the restore point with fresh statistics.
func restoreRun(file, bench, mode string, pf, enh bool, pfKind string, uops uint64, check bool) int {
	data, err := os.ReadFile(file)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	cfg, err := coreConfig(mode, pf, enh, pfKind, 0)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	p, err := workload.Load(bench)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	c, err := core.RestoreCore(data, cfg, p)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	fmt.Printf("restored            %s at cycle %d, pc %#x\n", file, c.Now(), c.FetchPC())
	var chk *simcheck.Checker
	if check {
		chk = simcheck.AttachResumed(c, p, simcheck.Options{})
	}
	c.ResetStats()
	st := c.Run(uops)
	if chk != nil {
		chk.Finish()
	}
	fmt.Printf("benchmark           %s, mode %s\n", bench, mode)
	fmt.Printf("committed uops      %d in %d cycles\n", st.Committed, st.Cycles)
	fmt.Printf("IPC                 %.3f\n", st.IPC())
	fmt.Printf("stats digest        %#x\n", simcheck.StatsDigest(st))
	return 0
}

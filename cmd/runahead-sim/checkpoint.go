package main

// Checkpoint/restore entry points: -checkpoint-out runs a benchmark, drains
// the machine to quiescence, and serializes it; -restore rebuilds the
// machine from those bytes and keeps simulating. The printed stats digest
// lets a shell script verify restore fidelity against an uninterrupted run.

import (
	"fmt"
	"os"

	"runaheadsim/internal/core"
	"runaheadsim/internal/harness"
	"runaheadsim/internal/prog"
	"runaheadsim/internal/simcheck"
	"runaheadsim/internal/workload"
)

// machine builds the named system's core configuration the way the harness
// builds every run's, with wdog as the -watchdog override, and loads the
// benchmark: the trace, checkpoint and restore paths build their core from
// these.
func machine(bench, system string, wdog int64) (core.Config, *prog.Program, error) {
	rc, err := harness.SystemByName(system)
	if err != nil {
		return core.Config{}, nil, err
	}
	p, err := workload.Load(bench)
	return harness.Options{WatchdogCycles: wdog}.CoreConfig(rc), p, err
}

// checkpointRun simulates warmup+uops micro-ops, drains, and writes the
// snapshot.
func checkpointRun(bench, system string, uops, warmup uint64, outFile string, check bool) error {
	cfg, p, err := machine(bench, system, 0)
	if err != nil {
		return err
	}
	c := core.New(cfg, p)
	var chk *simcheck.Checker
	if check {
		chk = simcheck.Attach(c, p, simcheck.Options{})
	}
	spec, _ := workload.SpecOf(bench)
	st := c.Run(harness.Options{WarmupUops: warmup}.Warmup(spec.Class) + uops)
	if err := c.Drain(); err != nil {
		return err
	}
	if chk != nil {
		chk.Finish()
	}
	data, err := c.Snapshot()
	if err != nil {
		return err
	}
	if err := os.WriteFile(outFile, data, 0o644); err != nil {
		return err
	}
	fmt.Printf("checkpoint          %s (%d bytes)\n", outFile, len(data))
	fmt.Printf("benchmark           %s, system %s\n", bench, system)
	fmt.Printf("committed uops      %d in %d cycles (drained)\n", st.Committed, c.Now())
	fmt.Printf("resume pc           %#x\n", c.FetchPC())
	fmt.Printf("stats digest        %#x\n", simcheck.StatsDigest(c.Stats()))
	return nil
}

// restoreRun rebuilds a machine from a snapshot and simulates uops more
// micro-ops from the restore point with fresh statistics.
func restoreRun(file, bench, system string, uops uint64, check bool) error {
	data, err := os.ReadFile(file)
	if err != nil {
		return err
	}
	cfg, p, err := machine(bench, system, 0)
	if err != nil {
		return err
	}
	c, err := core.RestoreCore(data, cfg, p)
	if err != nil {
		return err
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
	fmt.Printf("benchmark           %s, system %s\n", bench, system)
	fmt.Printf("committed uops      %d in %d cycles\n", st.Committed, st.Cycles)
	fmt.Printf("IPC                 %.3f\n", st.IPC())
	fmt.Printf("stats digest        %#x\n", simcheck.StatsDigest(st))
	return nil
}

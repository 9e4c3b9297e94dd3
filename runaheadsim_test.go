package runaheadsim

import (
	"strings"
	"testing"
)

func TestRunBaseline(t *testing.T) {
	res, err := Run(Config{Benchmark: "mcf", MeasureUops: 10_000, WarmupUops: 10_000})
	if err != nil {
		t.Fatal(err)
	}
	if res.IPC <= 0 || res.Committed < 10_000 || res.Cycles <= 0 {
		t.Fatalf("implausible result: %+v", res)
	}
	if res.IPCDeltaPct != 0 {
		t.Fatal("baseline delta vs itself must be zero")
	}
	if res.Mode != ModeBaseline {
		t.Fatalf("mode = %q", res.Mode)
	}
}

func TestRunHybridReportsDeltas(t *testing.T) {
	res, err := Run(Config{Benchmark: "mcf", Mode: ModeHybrid, MeasureUops: 20_000, WarmupUops: 20_000})
	if err != nil {
		t.Fatal(err)
	}
	if res.RunaheadIntervals == 0 {
		t.Fatal("hybrid on mcf must runahead")
	}
	if res.IPCDeltaPct <= 0 {
		t.Fatalf("hybrid on mcf should gain IPC, got %+.1f%%", res.IPCDeltaPct)
	}
	if res.Stats == nil {
		t.Fatal("raw stats missing")
	}
}

func TestRunRejectsUnknowns(t *testing.T) {
	if _, err := Run(Config{Benchmark: "nope"}); err == nil {
		t.Fatal("unknown benchmark must error")
	}
	if _, err := Run(Config{Benchmark: "mcf", Mode: "warp-drive"}); err == nil {
		t.Fatal("unknown mode must error")
	}
}

func TestBenchmarkLists(t *testing.T) {
	if len(Benchmarks()) != 29 {
		t.Fatalf("Benchmarks() = %d entries", len(Benchmarks()))
	}
	if len(MediumHighBenchmarks()) != 13 {
		t.Fatalf("MediumHighBenchmarks() = %d entries", len(MediumHighBenchmarks()))
	}
	if len(Modes()) != 6 {
		t.Fatalf("Modes() = %d entries", len(Modes()))
	}
}

func TestExperimentIDs(t *testing.T) {
	ids := ExperimentIDs()
	if len(ids) != 24 {
		t.Fatalf("have %d experiments", len(ids))
	}
	if _, err := RunExperiment("figure99", 1000); err == nil {
		t.Fatal("unknown experiment must error")
	}
}

func TestRunExperimentTable1(t *testing.T) {
	out, err := RunExperiment("table1", 1000)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "192-entry ROB") {
		t.Fatalf("table1 output wrong:\n%s", out)
	}
}

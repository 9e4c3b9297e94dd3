package twin

import (
	"math"
	"path/filepath"
	"testing"

	"runaheadsim/internal/core"
	"runaheadsim/internal/isa"
	"runaheadsim/internal/prog"
	"runaheadsim/internal/workload"
)

func testMachine() Machine { return MachineFrom(core.DefaultConfig()) }

// TestBuildProfileDeterministic: two passes over the same workload must be
// byte-for-byte identical — the profile feeds a memoized, provenance-tagged
// result cache, so any nondeterminism would poison sweeps.
func TestBuildProfileDeterministic(t *testing.T) {
	p := workload.MustLoad("mcf")
	m := testMachine()
	a := BuildProfile("mcf", p, m, 20_000, 30_000)
	b := BuildProfile("mcf", p, m, 20_000, 30_000)
	if *a != *b {
		t.Fatalf("profiles differ:\n%+v\n%+v", a, b)
	}
	if a.Mix.Uops != 30_000 {
		t.Fatalf("measured uops = %d, want 30000", a.Mix.Uops)
	}
	if a.DRAMLoads == 0 || a.Clusters == 0 {
		t.Fatalf("mcf should miss to DRAM in the measured window: %+v", a)
	}
	if a.Clusters > a.DRAMLoads {
		t.Fatalf("clusters (%d) cannot exceed DRAM misses (%d)", a.Clusters, a.DRAMLoads)
	}
	if a.CPFull < a.CPNoDRAM {
		t.Fatalf("full critical path (%d) below DRAM-capped one (%d)", a.CPFull, a.CPNoDRAM)
	}
}

// TestProfileSeparatesWorkloads: a pointer chase must show serialized DRAM
// behavior (critical path dominated by misses), a streaming kernel must
// show clustered-but-parallel misses, and a cache-resident kernel must show
// none. These contrasts are what the model's features discriminate on.
func TestProfileSeparatesWorkloads(t *testing.T) {
	m := testMachine()
	chase := BuildProfile("mcf", workload.MustLoad("mcf"), m, 100_000, 50_000)
	resident := BuildProfile("calculix", workload.MustLoad("calculix"), m, 100_000, 50_000)

	if resident.DRAMLoads*100 > chase.DRAMLoads {
		t.Fatalf("cache-resident kernel misses too much: %d vs chase %d",
			resident.DRAMLoads, chase.DRAMLoads)
	}
	if chase.CPFull-chase.CPNoDRAM == 0 {
		t.Fatalf("pointer chase shows no serialized DRAM critical path: %+v", chase)
	}
}

// synthPoints builds a set of points whose detailed targets are an exact
// linear function of the features, so the fit must recover near-zero error.
func synthPoints() []Point {
	theta := make([]float64, NumFeatures)
	theta[FIdeal], theta[FTaken], theta[FMispred] = 1.1, 0.5, 0.9
	theta[FLLC], theta[FDRAM], theta[FDRAMSerial] = 0.3, 1.0, 0.8
	theta[FCov], theta[FBias] = -0.6, 0.02
	etheta := make([]float64, NumEnergyFeatures)
	etheta[EUops], etheta[ECycles], etheta[EDRAM] = 0.0002, 0.0001, 0.0004

	var pts []Point
	benches := []string{"w0", "w1", "w2", "w3", "w4", "w5", "w6", "w7", "w8", "w9", "wa", "wb"}
	for bi, bench := range benches {
		for _, mode := range []core.Mode{core.ModeNone, core.ModeBuffer, core.ModeHybrid} {
			x := make([]float64, NumFeatures)
			uops := 100_000 + 1000*float64(bi)
			x[FIdeal] = uops/4 + 500*float64(bi%5)
			x[FTaken] = 8000 + 300*float64(bi)
			x[FMispred] = 700 * float64(bi%4)
			x[FLLC] = 900 * float64((bi+2)%5)
			x[FDRAM] = 12500 * float64(bi%6)
			x[FDRAMSerial] = 4000 * float64(bi%3)
			if mode != core.ModeNone {
				x[FCov] = 0.7 * x[FDRAM]
			}
			x[FBias] = uops / 1000
			var y float64
			for j := range x {
				y += theta[j] * x[j]
			}
			ex := make([]float64, NumEnergyFeatures)
			ex[EUops], ex[EDRAM] = uops, x[FDRAM]/125
			var e float64
			for j := range ex {
				e += etheta[j] * ex[j]
			}
			e += etheta[ECycles] * y
			pts = append(pts, Point{
				Bench: bench, Class: "high", Mode: mode,
				X: x, EX: ex, Uops: uint64(uops), DRAMLoads: uint64(x[FDRAM] / 125),
				DetCycles: y, DetIPC: uops / y, DetEnergyUJ: e,
			})
		}
	}
	return pts
}

// TestFitRecoversLinearModel: on exactly-linear synthetic data the fit must
// interpolate (tiny MAPE, r ≈ 1), proving the regression machinery.
func TestFitRecoversLinearModel(t *testing.T) {
	pts := synthPoints()
	m, err := Fit(pts, testMachine(), 0xabcd, 100_000)
	if err != nil {
		t.Fatal(err)
	}
	if m.Scores.MAPEPct > 0.5 {
		t.Fatalf("MAPE %.3f%% on exactly-linear data, want < 0.5%%", m.Scores.MAPEPct)
	}
	if m.Scores.PearsonR < 0.999 {
		t.Fatalf("Pearson r %.5f on exactly-linear data, want ~1", m.Scores.PearsonR)
	}
	if m.Scores.EnergyMAPEPct > 1 {
		t.Fatalf("energy MAPE %.3f%%, want < 1%%", m.Scores.EnergyMAPEPct)
	}
	// CPI stack of any prediction must sum to the predicted cycles.
	pred, err := m.Predict(pts[3])
	if err != nil {
		t.Fatal(err)
	}
	var sum int64
	for _, v := range pred.CPI {
		sum += v
	}
	if sum != pred.Cycles {
		t.Fatalf("CPI stack sums to %d, cycles %d", sum, pred.Cycles)
	}
	if pred.IPC <= 0 {
		t.Fatalf("nonpositive IPC %f", pred.IPC)
	}
}

// TestPredictModeFallback: ModeAdaptive, never calibrated, predicts with
// ModeHybrid's coefficients; a class group too small for its own fit
// resolves to the mode's pooled group; a mode with no group is an error.
func TestPredictModeFallback(t *testing.T) {
	pts := synthPoints()
	m, err := Fit(pts, testMachine(), 1, 100_000)
	if err != nil {
		t.Fatal(err)
	}
	pt := pts[5] // w1 under ModeHybrid, with DRAM stall clusters
	if pt.Mode != core.ModeHybrid || pt.X[FDRAM] == 0 {
		t.Fatalf("precondition: want a hybrid point with DRAM clusters, got %s %v", pt.Mode, pt.X)
	}
	hybrid, err := m.Predict(pt)
	if err != nil {
		t.Fatal(err)
	}
	pt.Mode = core.ModeAdaptive
	if got, err := m.Predict(pt); err != nil || got != hybrid {
		t.Fatalf("adaptive predicts %+v (err %v), want hybrid's %+v", got, err, hybrid)
	}
	pt.Mode = core.ModeTraditional
	if _, err := m.Predict(pt); err == nil {
		t.Fatal("a mode absent from calibration must not borrow another mode's coefficients")
	}

	// Three "low" benches are too few for their own group, so every mode
	// pools into an "all" group that answers for both class groups.
	for i := range pts[:9] {
		pts[i].Class = "low"
	}
	m, err = Fit(pts, testMachine(), 1, 100_000)
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range m.Groups {
		if g.ClassGroup != "all" {
			t.Fatalf("group %s/%s: undersized class groups must pool", g.Mode, g.ClassGroup)
		}
	}
	if _, err := m.Predict(pts[0]); err != nil {
		t.Fatalf("a pooled class group should resolve to the mode's all group: %v", err)
	}
}

// TestZeroClusterPointIsModeInvariant: a workload with no DRAM stall
// cluster cannot enter runahead, so every mode predicts exactly what the
// baseline predicts: the same cycles, IPC, CPI stack and energy.
func TestZeroClusterPointIsModeInvariant(t *testing.T) {
	m, err := Fit(synthPoints(), testMachine(), 1, 100_000)
	if err != nil {
		t.Fatal(err)
	}
	wp := &WorkloadProfile{
		Bench:       "w1",
		Mix:         Mix{Uops: 100_000, Loads: 30_000, Stores: 10_000, TakenBranches: 9_000},
		Mispredicts: 400,
		LLCHitLoads: 2_000,
		CPFull:      26_000,
		CPNoDRAM:    26_000,
	}
	var base Prediction
	for _, mode := range []core.Mode{core.ModeNone, core.ModeTraditional, core.ModeBuffer,
		core.ModeBufferCC, core.ModeHybrid, core.ModeAdaptive} {
		got, err := m.Predict(PointFrom(wp, testMachine(), mode, "high"))
		if err != nil {
			t.Fatalf("%s: %v", mode, err)
		}
		if mode == core.ModeNone {
			base = got
			continue
		}
		if got != base {
			t.Fatalf("%s predicts %+v, baseline %+v", mode, got, base)
		}
	}
}

// TestArtifactRoundTrip: save/load must preserve the model and enforce the
// version/fingerprint contract.
func TestArtifactRoundTrip(t *testing.T) {
	m, err := Fit(synthPoints(), testMachine(), 0xfeedbeef, 100_000)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "twin.json")
	if err := m.Save(path); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path, 0xfeedbeef)
	if err != nil {
		t.Fatal(err)
	}
	if got.Fingerprint != m.Fingerprint || len(got.Groups) != len(m.Groups) {
		t.Fatalf("round trip mangled the model: %+v", got)
	}
	for i := range got.Groups {
		for j := range got.Groups[i].Theta {
			if math.Abs(got.Groups[i].Theta[j]-m.Groups[i].Theta[j]) > 1e-12 {
				t.Fatalf("theta[%d][%d] drifted across the round trip", i, j)
			}
		}
	}
	if _, err := Load(path, 0xdeadbeef); err == nil {
		t.Fatal("fingerprint mismatch must refuse to load")
	}
}

// TestMixCountsClasses checks the instruction-mix tally the profiling
// observer keeps: loads, stores, conditional and taken branches, and
// long-latency ALU ops with their latencies, over the measured region only.
func TestMixCountsClasses(t *testing.T) {
	b := prog.NewBuilder("mix")
	buf := b.Alloc(64, 64)
	init := b.Block("init")
	init.Movi(1, 7).Movi(2, 3).Movi(5, int64(buf))
	loop := b.Block("loop")
	loop.Ld(6, 5, 0).St(5, 8, 6).Op(isa.MUL, 3, 1, 2).Op(isa.DIV, 4, 1, 2).Bnez(1, loop)
	p := b.MustBuild()

	// Warm up over init and one loop iteration, then measure two iterations.
	wp := BuildProfile("mix", p, testMachine(), 3+5, 2*5)
	want := Mix{Uops: 10, Loads: 2, Stores: 2, Branches: 2, CondBranches: 2, TakenBranches: 2,
		LongLatUops: 4, ExecLatCycles: uint64(2 * (isa.MUL.ExecLatency() + isa.DIV.ExecLatency()))}
	if wp.Mix != want {
		t.Fatalf("mix %+v, want %+v", wp.Mix, want)
	}
}

// TestProfileHistoryTracksOutcomes checks the profiler's predictor training
// on a branchy kernel: after every branch the global history holds exactly
// the last HistoryBits correct-path outcomes, mispredicted conditional
// branches included — the detailed core repairs its history the same way
// when it resolves a mispredict.
func TestProfileHistoryTracksOutcomes(t *testing.T) {
	m := testMachine()
	pr := newProfiler(m, &WorkloadProfile{})
	mask := uint64(1)<<m.BPred.HistoryBits - 1
	var hist uint64
	in := prog.NewInterp(workload.MustLoad("gcc"))
	in.Observe = func(u *isa.Uop, e Exec) {
		pr.step(u, e)
		if !u.Op.IsBranch() {
			return
		}
		hist <<= 1
		if e.Taken {
			hist |= 1
		}
		if got, want := pr.bp.GHR(), hist&mask; got != want {
			t.Fatalf("after branch at %#x (uop %d): history %016b, last outcomes %016b", e.PC, in.Count(), got, want)
		}
	}
	in.Run(200_000)
	if pr.bp.Mispredicts == 0 {
		t.Fatal("no mispredicts: the history repair path was not exercised")
	}
}

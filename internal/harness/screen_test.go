package harness

import (
	"math"
	"testing"

	"runaheadsim/internal/core"
	"runaheadsim/internal/twin"
	"runaheadsim/internal/workload"
)

// TestKeyCollisionResistance is the regression test for the memo-key
// hardening: configurations that render identically through String() paths
// (out-of-range modes all print "unknown") or that could concatenate into
// the same digit string must still get distinct cache keys.
func TestKeyCollisionResistance(t *testing.T) {
	a := RunConfig{Mode: core.Mode(200)}
	b := RunConfig{Mode: core.Mode(201)}
	if a.Mode.String() != b.Mode.String() {
		t.Fatalf("precondition: out-of-range modes should share a String() rendering, got %q vs %q",
			a.Mode.String(), b.Mode.String())
	}
	if key("mcf", a) == key("mcf", b) {
		t.Error("distinct out-of-range modes must not share a cache key")
	}

	// Digit-concatenation hazard: MaxChain=1,CCEntries=12 vs MaxChain=11,
	// CCEntries=2 both spell "112" without a separator.
	c := BufferCC
	c.MaxChain, c.CCEntries = 1, 12
	d := BufferCC
	d.MaxChain, d.CCEntries = 11, 2
	if key("mcf", c) == key("mcf", d) {
		t.Error("structure-size overrides must not concatenate into the same key")
	}

	// Bench/field boundary: the bench name must not bleed into the config
	// fields.
	if key("mcf", Baseline) == key("mcf|0", Baseline) {
		t.Error("bench name must be delimited from config fields")
	}
}

// screenBenches is a small cross-class calibration set: two memory-intensive
// benches and two low-intensity ones.
var screenBenches = []string{"mcf", "zeusmp", "calculix", "gamess"}

// TestCalibrateScreenPromoteRoundTrip exercises the whole screening tier on
// a reduced matrix: calibrate a twin, build a screen, and check that the
// promoted benches are exactly the ones whose deltas the twin cannot
// settle, that provenance is tagged, and — the acceptance property — that
// detailed pairs are bit-identical to a fresh full-detail runner.
func TestCalibrateScreenPromoteRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	opts := Options{MeasureUops: 8_000, WarmupUops: 8_000, Benchmarks: screenBenches}
	r := NewRunner(opts)
	model, points, err := r.Calibrate(screenBenches, nil, 4)
	if err != nil {
		t.Fatal(err)
	}
	if want := len(screenBenches) * len(CalibrationConfigs()); len(points) != want {
		t.Fatalf("calibration points = %d, want %d", len(points), want)
	}
	if model.Fingerprint != TwinFingerprint() {
		t.Fatal("model fingerprint must match the machine")
	}
	if len(model.Scales) != len(screenBenches) {
		t.Fatalf("model has %d workload anchors, want %d", len(model.Scales), len(screenBenches))
	}
	if r.ProfileWallSec() <= 0 {
		t.Error("profiling wall time was not accounted")
	}

	var plan []PlannedRun
	for _, b := range screenBenches {
		for _, rc := range CalibrationConfigs() {
			plan = append(plan, PlannedRun{Bench: b, Config: rc})
		}
	}
	// This matrix may settle every bench; an out-of-domain pair still runs
	// in detail, so the bit-for-bit comparison below always has a subject.
	plan = append(plan, PlannedRun{Bench: "mcf", Config: Baseline.WithPF()})
	sc, err := BuildScreen(r, plan, model, 4)
	if err != nil {
		t.Fatal(err)
	}
	rows := map[string]ScreenRow{}
	for _, row := range sc.Rows() {
		rows[row.Bench] = row
	}
	if len(rows) != len(screenBenches) {
		t.Fatalf("screen rows = %d, want %d", len(rows), len(screenBenches))
	}

	// A bench is unsettled when some configuration's twin-predicted IPC
	// delta vs Base is nonzero but within its calibration error on both
	// sides of the ratio.
	m := twin.MachineFrom(twinMachineConfig())
	var promoted, twinBenches []string
	for _, b := range screenBenches {
		spec, _ := workload.SpecOf(b)
		ipc := func(rc RunConfig) float64 {
			p, err := model.Predict(twin.PointFrom(r.twinProfile(b), m, rc.Mode, spec.Class.String()))
			if err != nil {
				t.Fatal(err)
			}
			return p.IPC
		}
		mape := model.WorkloadMAPE(b)
		unsettled := false
		for _, rc := range CalibrationConfigs() {
			d := 100 * (ipc(rc) - ipc(Baseline)) / ipc(Baseline)
			unsettled = unsettled || d != 0 && math.Abs(d) <= 2*mape*(1+d/100)
		}
		if got := rows[b].Provenance == ProvenanceDetailed; got != unsettled {
			t.Errorf("%s: promoted %v, unsettled %v (row %+v)", b, got, unsettled, rows[b])
		}
		if unsettled {
			promoted = append(promoted, b)
		} else {
			twinBenches = append(twinBenches, b)
		}
	}
	t.Logf("promoted %v, on the twin %v", promoted, twinBenches)
	if len(twinBenches) == 0 {
		t.Fatal("no bench stayed on the twin; the round trip tests nothing")
	}
	// A bench the twin was never calibrated on always runs in detail.
	other, err := BuildScreen(r, []PlannedRun{{Bench: "lbm", Config: Buffer}}, model, 1)
	if err != nil {
		t.Fatal(err)
	}
	if row := other.Rows()[0]; row.Reason != "uncalibrated" || !other.WantsDetailed("lbm", Buffer) {
		t.Errorf("uncalibrated bench: row %+v, want promoted as uncalibrated", row)
	}

	// Out-of-domain configs force detail even on twin benches.
	if !sc.WantsDetailed(twinBenches[0], Baseline.WithPF()) {
		t.Error("prefetch configs must always run detailed")
	}
	if sc.WantsDetailed(twinBenches[0], Baseline) {
		t.Error("non-promoted bench under a modeled config must stay on the twin")
	}

	// A fresh screened runner must tag provenance on both paths and agree
	// bit-identically with full detail on every promoted pair.
	scr := NewRunner(opts)
	scr.SetScreen(sc)
	detail := NewRunner(opts)
	var compared int
	for _, pr := range plan {
		got := scr.Result(pr.Bench, pr.Config)
		if sc.WantsDetailed(pr.Bench, pr.Config) {
			compared++
			if got.Provenance != ProvenanceDetailed {
				t.Fatalf("%s/%s: provenance %q, want detailed", pr.Bench, pr.Config.Label(), got.Provenance)
			}
			want := detail.Result(pr.Bench, pr.Config)
			if got.Stats.Cycles != want.Stats.Cycles || got.IPC != want.IPC {
				t.Fatalf("%s/%s: screened detailed run diverged: %d cycles vs %d",
					pr.Bench, pr.Config.Label(), got.Stats.Cycles, want.Stats.Cycles)
			}
			continue
		}
		if got.Provenance != ProvenanceTwin {
			t.Fatalf("%s/%s: provenance %q, want twin", pr.Bench, pr.Config.Label(), got.Provenance)
		}
		// Twin results keep the detailed invariants the report relies on.
		var sum int64
		for _, v := range got.Stats.CPIStack {
			sum += v
		}
		if sum != got.Stats.Cycles {
			t.Fatalf("%s/%s: twin CPI stack sums to %d, cycles are %d",
				pr.Bench, pr.Config.Label(), sum, got.Stats.Cycles)
		}
		if got.IPC <= 0 || got.Stats.Cycles <= 0 {
			t.Fatalf("%s/%s: degenerate twin result %+v", pr.Bench, pr.Config.Label(), got)
		}
	}

	if compared == 0 {
		t.Fatal("no detailed pair was compared against full detail")
	}

	// The provenance table mirrors the decisions.
	tb := sc.Table()
	if len(tb.Rows) != len(screenBenches) {
		t.Fatalf("screen table rows = %d, want %d", len(tb.Rows), len(screenBenches))
	}
}

// TestBuildScreenRejectsForeignModel checks the fingerprint gate: a model
// calibrated for another machine must be refused, not silently applied.
func TestBuildScreenRejectsForeignModel(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	r := NewRunner(Options{MeasureUops: 8_000, WarmupUops: 8_000, Benchmarks: []string{"mcf"}})
	model, _, err := r.Calibrate([]string{"mcf"}, nil, 2)
	if err != nil {
		t.Fatal(err)
	}
	model.Fingerprint++
	if _, err := BuildScreen(r, []PlannedRun{{Bench: "mcf", Config: Baseline}}, model, 2); err == nil {
		t.Fatal("mismatched fingerprint must be rejected")
	}
}

package harness

import (
	"encoding/json"
	"fmt"
	"slices"
	"strings"
	"testing"

	"runaheadsim/internal/core"
)

func coreDefault() core.Config { return core.DefaultConfig() }

// quick returns a runner with a tiny budget for unit tests.
func quick() *Runner {
	return NewRunner(Options{MeasureUops: 8_000, WarmupUops: 8_000})
}

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

func TestRunnerMemoizes(t *testing.T) {
	r := quick()
	a := r.Result("mcf", Baseline)
	b := r.Result("mcf", Baseline)
	if a != b {
		t.Fatal("identical runs must be memoized")
	}
	c := r.Result("mcf", Runahead)
	if c == a {
		t.Fatal("different configs must not share results")
	}
}

func TestLabels(t *testing.T) {
	cases := map[string]RunConfig{
		"Base":        Baseline,
		"PF":          Baseline.WithPF(),
		"RA":          Runahead,
		"RA-Enh":      RunaheadEnh,
		"RB":          Buffer,
		"RB+CC":       BufferCC,
		"Hybrid":      Hybrid,
		"Adaptive":    AdaptiveHybrid,
		"RA+PF":       Runahead.WithPF(),
		"Hybrid+PF":   Hybrid.WithPF(),
		"Adaptive+PF": AdaptiveHybrid.WithPF(),
		"DeltaPF":     DeltaPF,
	}
	for want, rc := range cases {
		if got := rc.Label(); got != want {
			t.Errorf("Label(%+v) = %q, want %q", rc, got, want)
		}
	}
}

// TestSystemTable pins the system table: every label is distinct, and each
// entry is what SystemByName returns for its label.
func TestSystemTable(t *testing.T) {
	seen := map[string]bool{}
	for _, rc := range Systems() {
		name := rc.Label()
		if seen[name] {
			t.Errorf("label %q names two systems", name)
		}
		seen[name] = true
		got, err := SystemByName(name)
		if err != nil || got != rc {
			t.Errorf("SystemByName(%q) = %+v, %v; want %+v", name, got, err, rc)
		}
	}
	if len(seen) != 15 {
		t.Errorf("have %d systems, want 15", len(seen))
	}
	if _, err := SystemByName("Hybrid-NoEnh"); err == nil || !strings.Contains(err.Error(), "RB+CC") {
		t.Errorf("an unknown name must fail listing the valid ones, got %v", err)
	}
}

func TestUnknownBenchmarkPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("unknown benchmark must panic")
		}
	}()
	quick().Result("nope", Baseline)
}

func TestTableRender(t *testing.T) {
	tb := Table{ID: "x", Title: "demo", Columns: []string{"A", "Blong"}}
	tb.AddRow("aaaa", "1")
	tb.AddRow("b", "22")
	tb.Notes = append(tb.Notes, "a note")
	var sb strings.Builder
	tb.Render(&sb)
	out := sb.String()
	for _, want := range []string{"== x: demo ==", "A     Blong", "aaaa", "note: a note"} {
		if !strings.Contains(out, want) {
			t.Fatalf("rendered table missing %q:\n%s", want, out)
		}
	}
}

func TestExperimentsListComplete(t *testing.T) {
	ids := map[string]bool{}
	for _, e := range Experiments() {
		ids[e.ID] = true
	}
	for _, want := range []string{"table1", "table2", "figure1", "figure2", "figure3", "figure4",
		"figure5", "figure9", "figure10", "figure11", "figure12", "figure13", "figure14",
		"figure15", "figure16", "figure17", "figure18", "sens-buffer", "sens-chaincache",
		"cpi-stack", "report", "sampling"} {
		if !ids[want] {
			t.Errorf("experiment %s missing", want)
		}
	}
	if len(ids) != 24 {
		t.Fatalf("expected 24 experiments, have %d", len(ids))
	}
}

func TestTable1StaticContent(t *testing.T) {
	tb := Table1(quick())
	if len(tb.Rows) < 8 {
		t.Fatalf("Table 1 has %d rows", len(tb.Rows))
	}
	var sb strings.Builder
	tb.Render(&sb)
	for _, want := range []string{"192-entry ROB", "92-entry reservation station", "DDR3", "Stream"} {
		if !strings.Contains(sb.String(), want) {
			t.Fatalf("Table 1 missing %q", want)
		}
	}
}

// TestFigureBuildersRunSmall smoke-tests one cheap figure end to end on a
// reduced benchmark set by monkey-free means: we just run the cheapest
// figures with a tiny budget.
func TestFigureBuildersRunSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	r := quick()
	f9 := Figure9(r)
	if len(f9.Rows) != 30 { // 29 benchmarks + GMean
		t.Fatalf("figure 9 rows = %d, want 30", len(f9.Rows))
	}
	f11 := Figure11(r)
	if len(f11.Rows) != 14 { // 13 M+H + mean
		t.Fatalf("figure 11 rows = %d, want 14", len(f11.Rows))
	}
}

// TestFigure9ShapeRegression locks in the qualitative Figure 9 results on a
// representative subset so calibration changes that break the paper's story
// fail loudly:
//
//   - the runahead buffer beats traditional runahead where chains are short
//     and repetitive (mcf, zeusmp);
//   - the buffer loses outright on sphinx3 (chains past the 32-uop cap);
//   - the hybrid policy rescues sphinx3 by falling back to traditional mode;
//   - every mode leaves the low-intensity benchmarks alone.
func TestFigure9ShapeRegression(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	// Automatic warmup: low-intensity benchmarks need their arrays wrapped
	// before steady state, or cold misses make runahead look useful on them.
	r := NewRunner(Options{MeasureUops: 40_000})
	delta := func(bench string, rc RunConfig) float64 {
		return r.ipcDeltaPct(bench, rc)
	}
	for _, bench := range []string{"mcf", "zeusmp"} {
		ra, rb := delta(bench, Runahead), delta(bench, BufferCC)
		if rb <= ra {
			t.Errorf("%s: buffer %+.1f%% should beat traditional %+.1f%%", bench, rb, ra)
		}
		if rb <= 10 {
			t.Errorf("%s: buffer gain %+.1f%% implausibly small", bench, rb)
		}
	}
	if rb := delta("sphinx3", BufferCC); rb >= 0 {
		t.Errorf("sphinx3: buffer should lose (chains exceed the cap), got %+.1f%%", rb)
	}
	if hy := delta("sphinx3", Hybrid); hy <= delta("sphinx3", BufferCC) {
		t.Errorf("sphinx3: hybrid (%+.1f%%) must rescue the buffer (%+.1f%%)",
			hy, delta("sphinx3", BufferCC))
	}
	if hyStats := r.Result("sphinx3", Hybrid).Stats; hyStats.HybridChoseTrad == 0 {
		t.Error("sphinx3: hybrid never chose traditional runahead")
	}
	if low := delta("calculix", Hybrid); low > 1 || low < -1 {
		t.Errorf("calculix (low intensity) moved %+.1f%% under hybrid", low)
	}
}

// TestSensitivityTables smoke-checks the sensitivity experiments.
func TestSensitivityTables(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	r := NewRunner(Options{MeasureUops: 15_000, WarmupUops: 15_000, Benchmarks: []string{"mcf", "zeusmp"}})
	sb := SensBufferSize(r)
	if len(sb.Rows) != 3 { // two benchmarks + GMean
		t.Fatalf("sens-buffer rows = %d", len(sb.Rows))
	}
	sc := SensChainCache(r)
	if len(sc.Rows) != 3 {
		t.Fatalf("sens-chaincache rows = %d", len(sc.Rows))
	}
	ep := ExtPrefetchers(r)
	if len(ep.Columns) != 4 {
		t.Fatalf("ext-prefetchers columns = %d", len(ep.Columns))
	}
}

func TestClaimsWellFormed(t *testing.T) {
	ids := map[string]bool{}
	for _, c := range Claims() {
		if c.ID == "" || c.Description == "" || c.Measure == nil {
			t.Errorf("malformed claim %+v", c)
		}
		if ids[c.ID] {
			t.Errorf("duplicate claim id %s", c.ID)
		}
		ids[c.ID] = true
	}
	if len(ids) < 15 {
		t.Fatalf("only %d claims", len(ids))
	}
}

func TestStorageOverheadNearPaper(t *testing.T) {
	kb := float64(StorageOverheadBytes(coreDefault())) / 1024
	if kb < 1 || kb > 3 {
		t.Fatalf("storage overhead %.2f kB; paper estimates 1.7 kB", kb)
	}
}

func TestDefaultShape(t *testing.T) {
	if ok, _ := defaultShape(10, 20); !ok {
		t.Error("2x magnitude should pass")
	}
	if ok, _ := defaultShape(10, -5); ok {
		t.Error("sign flip must fail")
	}
	if ok, _ := defaultShape(10, 100); ok {
		t.Error("10x magnitude must fail")
	}
	if ok, _ := defaultShape(0, 1); !ok {
		t.Error("near-zero must pass for zero paper value")
	}
}

func TestReportRunsSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	r := NewRunner(Options{MeasureUops: 8_000, WarmupUops: 8_000, Benchmarks: []string{"mcf", "zeusmp"}})
	tb := Report(r)
	if len(tb.Rows) != len(Claims()) {
		t.Fatalf("report rows = %d, want %d", len(tb.Rows), len(Claims()))
	}
}

// TestCPIStackTable checks every row of the CPI-stack experiment sums to
// (approximately) 100% — the rendering-level view of the accounting
// invariant.
func TestCPIStackTable(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	r := NewRunner(Options{MeasureUops: 8_000, WarmupUops: 8_000, Benchmarks: []string{"mcf", "zeusmp"}})
	tb := CPIStack(r)
	if len(tb.Rows) != 8 { // 2 benchmarks x 4 configs
		t.Fatalf("cpi-stack rows = %d, want 8", len(tb.Rows))
	}
	for _, row := range tb.Rows {
		var sum float64
		for _, cell := range row[2:] {
			var v float64
			if _, err := fmt.Sscanf(cell, "%f%%", &v); err != nil {
				t.Fatalf("unparseable cell %q in row %v", cell, row)
			}
			sum += v
		}
		if sum < 99.0 || sum > 101.0 {
			t.Fatalf("row %v sums to %.1f%%, want ~100%%", row, sum)
		}
	}
}

// TestRunnerTimelineOption checks the TimelineInterval option produces a
// populated timeline on every result.
func TestRunnerTimelineOption(t *testing.T) {
	r := NewRunner(Options{MeasureUops: 8_000, WarmupUops: 8_000, TimelineInterval: 512})
	res := r.Result("mcf", Baseline)
	if res.Timeline == nil || res.Timeline.Len() == 0 {
		t.Fatal("timeline option produced no samples")
	}
	for _, s := range res.Timeline.Samples() {
		if s.IPC < 0 || s.Mode == "" {
			t.Fatalf("malformed sample %+v", s)
		}
	}
	// Without the option the field stays nil.
	r2 := quick()
	if r2.Result("mcf", Baseline).Timeline != nil {
		t.Fatal("timeline must be nil when the option is off")
	}
}

func TestTableJSONRoundTrip(t *testing.T) {
	tb := Table{ID: "x", Title: "demo", Columns: []string{"A", "B"}, Notes: []string{"n"}}
	tb.AddRow("1", "2")
	data, err := json.Marshal(tb)
	if err != nil {
		t.Fatal(err)
	}
	var back Table
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.ID != tb.ID || len(back.Rows) != 1 || back.Rows[0][1] != "2" || back.Notes[0] != "n" {
		t.Fatalf("round trip lost data: %+v", back)
	}
}

// TestRunNamesDistinguishOverrides checks that runs differing only in
// overrides Label leaves out — chain-cache entries, chain length, dependence
// tracking — report to the Monitor under distinct names, while Label, the
// figures' column header, stays the system's name.
func TestRunNamesDistinguishOverrides(t *testing.T) {
	mon := &recordingMonitor{}
	r := NewRunner(Options{MeasureUops: 2_000, WarmupUops: 1_000, Monitor: mon})
	configs := []RunConfig{
		BufferCC,
		{Mode: BufferCC.Mode, CCEntries: 4},
		{Mode: BufferCC.Mode, MaxChain: 16},
		Runahead,
		Runahead.WithDepTrack(),
	}
	for _, rc := range configs {
		r.Result("mcf", rc)
	}
	want := []string{"mcf|RB+CC", "mcf|RB+CC cc=4", "mcf|RB+CC chain=16", "mcf|RA", "mcf|RA dep"}
	if !slices.Equal(mon.starts, want) {
		t.Fatalf("runs started as %q, want %q", mon.starts, want)
	}
	for _, rc := range configs[1:3] {
		if got := rc.Label(); got != "RB+CC" {
			t.Fatalf("Label of %+v = %q, want RB+CC", rc, got)
		}
	}
}

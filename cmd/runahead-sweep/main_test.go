package main

import (
	"bytes"
	"encoding/json"
	"io"
	"strings"
	"testing"

	"runaheadsim/internal/harness"
)

// TestParallelSweepByteIdentical is the -j acceptance check: the same sweep
// on one worker and on four must render identical bytes.
func TestParallelSweepByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	base := []string{"-experiments", "figure9,figure12", "-benchmarks", "mcf,libquantum",
		"-uops", "8000", "-warmup", "8000", "-q"}
	var seq, par bytes.Buffer
	if code := run(append(append([]string{}, base...), "-j", "1"), &seq, io.Discard); code != 0 {
		t.Fatalf("sequential sweep exited %d", code)
	}
	if code := run(append(append([]string{}, base...), "-j", "4"), &par, io.Discard); code != 0 {
		t.Fatalf("parallel sweep exited %d", code)
	}
	if seq.Len() == 0 {
		t.Fatal("sweep produced no output")
	}
	if !bytes.Equal(seq.Bytes(), par.Bytes()) {
		t.Errorf("-j 4 output differs from -j 1:\n--- j1 ---\n%s\n--- j4 ---\n%s", seq.String(), par.String())
	}
}

// TestSampledSweepRuns checks the -sample path end to end: the sampled
// sweep must render its table, and its numbers must come from sampled runs
// (they differ from the full-detail sweep at the same settings). Sampling
// accuracy is pinned in the harness package (TestSampleModeAccuracy).
func TestSampledSweepRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	args := []string{"-experiments", "figure9", "-benchmarks", "mcf",
		"-uops", "60000", "-warmup", "30000", "-q", "-j", "4"}
	var full, sampled, errb bytes.Buffer
	if code := run(args, &full, &errb); code != 0 {
		t.Fatalf("full-detail sweep exited %d: %s", code, errb.String())
	}
	if code := run(append(append([]string{}, args...), "-sample", "-intervals", "4"), &sampled, &errb); code != 0 {
		t.Fatalf("sampled sweep exited %d: %s", code, errb.String())
	}
	if !bytes.Contains(sampled.Bytes(), []byte("figure9")) || !bytes.Contains(sampled.Bytes(), []byte("\nmcf ")) {
		t.Fatalf("sampled sweep is missing the figure9 mcf row:\n%s", sampled.String())
	}
	if bytes.Equal(full.Bytes(), sampled.Bytes()) {
		t.Fatalf("-sample rendered the full-detail numbers; sampling did not engage:\n%s", sampled.String())
	}
}

func TestUnknownExperimentRejected(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-experiments", "figure99"}, &out, &errb); code == 0 {
		t.Fatal("unknown experiment accepted")
	}
	if !bytes.Contains(errb.Bytes(), []byte("figure99")) {
		t.Fatalf("error does not name the unknown experiment: %s", errb.String())
	}
}

// TestMixModeRuns checks the multi-programmed path end to end: -cores 2
// must render the per-core table with both configurations and the fairness
// summary rows, and the JSON form must key per-core stats by core ID.
func TestMixModeRuns(t *testing.T) {
	args := []string{"-cores", "2", "-mix", "libquantum,mcf", "-uops", "8000", "-warmup", "4000", "-q"}
	var out, errb bytes.Buffer
	if code := run(args, &out, &errb); code != 0 {
		t.Fatalf("mix mode exited %d: %s", code, errb.String())
	}
	for _, want := range []string{"multiprog", "libquantum", "mcf", "WS=", "hmean=", "max=", "Base", "RB"} {
		if !bytes.Contains(out.Bytes(), []byte(want)) {
			t.Fatalf("mix table missing %q:\n%s", want, out.String())
		}
	}

	var jsOut bytes.Buffer
	if code := run(append(append([]string{}, args...), "-json"), &jsOut, io.Discard); code != 0 {
		t.Fatal("mix mode -json failed")
	}
	var results []struct {
		Config string                     `json:"config"`
		WS     float64                    `json:"weighted_speedup"`
		Cores  map[string]json.RawMessage `json:"cores"`
	}
	if err := json.Unmarshal(jsOut.Bytes(), &results); err != nil {
		t.Fatalf("mix JSON invalid: %v\n%s", err, jsOut.String())
	}
	if len(results) != 2 {
		t.Fatalf("want 2 configurations, got %d", len(results))
	}
	for _, r := range results {
		if r.WS <= 0 || len(r.Cores) != 2 || r.Cores["0"] == nil || r.Cores["1"] == nil {
			t.Fatalf("mix JSON missing per-core-ID stats: %s", jsOut.String())
		}
	}
}

// TestMixModeBadFlags pins flag validation: a -mix/-cores mismatch must be
// rejected.
func TestMixModeBadFlags(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-cores", "3", "-mix", "mcf,milc"}, &out, &errb); code == 0 {
		t.Fatal("mismatched -mix/-cores accepted")
	}
}

// TestBenchmarkListFlags pins the list-flag parser: entries are trimmed, so
// "mcf, lbm" names both kernels (it used to drop lbm from -benchmarks and
// panic in -mix), and an empty or unknown entry exits 2 with a one-line
// error naming it.
func TestBenchmarkListFlags(t *testing.T) {
	var out, errb bytes.Buffer
	args := []string{"-experiments", "figure9", "-benchmarks", "mcf, lbm", "-uops", "2000", "-warmup", "2000", "-q", "-j", "1"}
	if code := run(args, &out, &errb); code != 0 {
		t.Fatalf("-benchmarks \"mcf, lbm\" exited %d: %s", code, errb.String())
	}
	for _, want := range []string{"\nmcf ", "\nlbm "} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("figure9 is missing the %q row:\n%s", strings.TrimSpace(want), out.String())
		}
	}

	out.Reset()
	if code := run([]string{"-cores", "2", "-mix", "mcf, lbm", "-uops", "2000", "-warmup", "2000", "-q"}, &out, &errb); code != 0 {
		t.Fatalf("-mix \"mcf, lbm\" exited %d: %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "lbm") {
		t.Fatalf("mix table is missing lbm:\n%s", out.String())
	}

	for _, tc := range []struct {
		args []string
		bad  string
	}{
		{[]string{"-benchmarks", "nosuch"}, `"nosuch"`},
		{[]string{"-benchmarks", "mcf,,lbm"}, "position 2"},
		{[]string{"-benchmarks", "mcf,"}, "position 2"},
		{[]string{"-cores", "2", "-mix", "mcf, nosuch"}, `"nosuch"`},
	} {
		var out, errb bytes.Buffer
		if code := run(tc.args, &out, &errb); code != 2 {
			t.Errorf("%v: exit %d, want 2", tc.args, code)
		}
		msg := errb.String()
		if !strings.Contains(msg, tc.bad) || strings.Count(msg, "\n") != 1 {
			t.Errorf("%v: want a one-line error naming %s, got %q", tc.args, tc.bad, msg)
		}
		if out.Len() != 0 {
			t.Errorf("%v: rejected list still produced output:\n%s", tc.args, out.String())
		}
	}
}

// TestEmptyGeomeanRendersDash pins the empty-set geomean: a -benchmarks
// subset with no medium/high-intensity member leaves figure9's GMean(M+H)
// undefined, which must render as "-", not as -100.0%.
func TestEmptyGeomeanRendersDash(t *testing.T) {
	var out, errb bytes.Buffer
	args := []string{"-experiments", "figure9", "-benchmarks", "gcc", "-uops", "2000", "-warmup", "2000", "-q", "-j", "1"}
	if code := run(args, &out, &errb); code != 0 {
		t.Fatalf("sweep exited %d: %s", code, errb.String())
	}
	if strings.Contains(out.String(), "-100.0%") {
		t.Fatalf("empty geomean rendered as -100.0%%:\n%s", out.String())
	}
	var gmean []string
	for _, line := range strings.Split(out.String(), "\n") {
		if strings.HasPrefix(line, "GMean(M+H)") {
			gmean = strings.Fields(line)[1:]
		}
	}
	if len(gmean) != 4 {
		t.Fatalf("want a GMean(M+H) row with four cells:\n%s", out.String())
	}
	for _, cell := range gmean {
		if cell != "-" {
			t.Fatalf("GMean(M+H) cell %q, want \"-\":\n%s", cell, out.String())
		}
	}
}

// TestReportExperimentJSON drives the claim report through the sweep's -json
// path: the output decodes as the table array and the verdict table has one
// row per claim.
func TestReportExperimentJSON(t *testing.T) {
	var out, errb bytes.Buffer
	args := []string{"-experiments", "report", "-benchmarks", "mcf,libquantum",
		"-uops", "2000", "-warmup", "2000", "-json"}
	if code := run(args, &out, &errb); code != 0 {
		t.Fatalf("report sweep exited %d: %s", code, errb.String())
	}
	var tables []harness.Table
	if err := json.Unmarshal(out.Bytes(), &tables); err != nil {
		t.Fatalf("-json output does not decode as []harness.Table: %v\n%s", err, out.String())
	}
	if len(tables) != 1 || tables[0].ID != "report" {
		t.Fatalf("want exactly the report table, got %d tables", len(tables))
	}
	if got := len(tables[0].Rows); got != 17 {
		t.Fatalf("report table has %d claim rows, want 17", got)
	}
}

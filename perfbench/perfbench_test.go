package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"testing"
	"time"

	"runaheadsim/internal/prog"
)

// testScale shrinks every run length so a pass takes milliseconds.
const testScale = 0.02

// contract reads the metric names and units BENCHMARK.json promises, and
// checks that it names the workloads this program runs.
func contract(t *testing.T) (endToEnd, perLayer map[string]string) {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the program runs %d", len(doc.Workloads), len(workloads))
	}
	for i, w := range doc.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("BENCHMARK.json workload %d is %+v, the program's is %q: %q", i, w, workloads[i].name, workloads[i].why)
		}
	}
	endToEnd, perLayer = map[string]string{}, map[string]string{}
	for _, m := range doc.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range doc.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	return endToEnd, perLayer
}

func checkMetrics(t *testing.T, res *result, want map[string]string) {
	t.Helper()
	if len(res.Metrics) != len(want) {
		t.Errorf("%d metrics reported, BENCHMARK.json names %d", len(res.Metrics), len(want))
	}
	for name, unit := range want {
		m, ok := res.Metrics[name]
		if !ok {
			t.Errorf("metric %s missing", name)
		} else if m.Unit != unit {
			t.Errorf("metric %s in %q, BENCHMARK.json says %q", name, m.Unit, unit)
		}
	}
}

// layerSpans are the spans a traced pass must hold, per workload.
var layerSpans = map[string][]string{
	"runahead-detail": {"bench.pass", "bench.cell", "workload.load", "core.new", "core.run", "bench.check"},
	"baseline-detail": {"bench.pass", "bench.cell", "workload.load", "core.new", "core.run", "bench.check"},
	"multicore-mix":   {"bench.pass", "bench.cell", "workload.load", "multicore.new", "multicore.run", "bench.check"},
	"sampled-sweep": {"bench.pass", "workload.load", "harness.new_runner", "harness.plan", "harness.prewarm",
		"harness.run", "harness.bbv_profile", "prog.fast_forward", "harness.window_warmup", "harness.window_measure"},
}

func traceSpanNames(t *testing.T, path string) map[string]bool {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []chromeEvent  `json:"traceEvents"`
		OtherData   map[string]any `json:"otherData"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("trace is not JSON: %v", err)
	}
	if doc.OtherData["commit"] == nil || doc.OtherData["seed"] == nil {
		t.Errorf("trace envelope incomplete: %v", doc.OtherData)
	}
	names := map[string]bool{}
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "X" {
			names[ev.Name] = true
		}
	}
	return names
}

// TestWorkloadsShort runs every workload at a short length: every metric
// BENCHMARK.json names is reported with its unit, no cell fails, the traced
// run writes a span for every layer it drives, and the simulated counts
// repeat exactly between two runs of the same seed.
func TestWorkloadsShort(t *testing.T) {
	e2e, layers := contract(t)
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			o := options{def: w, seed: 3, scale: testScale}
			res, _, err := run(o, io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("untraced run: correct=%v failed=%d of %d", res.Correct, res.Failed, res.Attempted)
			}
			checkMetrics(t, res, e2e)

			o.seed, o.trace = 0, true
			var counts [2][2]float64
			for i := range counts {
				o.traceOut = filepath.Join(t.TempDir(), "trace.json")
				res, rec, err := run(o, io.Discard)
				if err != nil {
					t.Fatal(err)
				}
				checkMetrics(t, res, layers)
				if f := res.Metrics["failed_frac"].Value; f != 0 || !res.Correct {
					t.Fatalf("failed_frac = %v, errors %v", f, rec["errors"])
				}
				counts[i] = [2]float64{res.Metrics["core.cycles"].Value, res.Metrics["core.committed_uops"].Value}
				spans := traceSpanNames(t, o.traceOut)
				for _, s := range layerSpans[w.name] {
					if !spans[s] {
						t.Errorf("trace has no %s span", s)
					}
				}
			}
			if counts[0] != counts[1] || counts[0][0] == 0 || counts[0][1] == 0 {
				t.Errorf("core.cycles/core.committed_uops %v then %v", counts[0], counts[1])
			}
		})
	}
}

// TestWrongReferenceFails shows that a cell whose committed state disagrees
// with the reference interpreter is counted as failed.
func TestWrongReferenceFails(t *testing.T) {
	wrong := func(p *prog.Program, start *prog.ArchState, n uint64) *prog.Interp {
		in := referenceInterp(p, start, n)
		in.Regs[len(in.Regs)-1]++
		return in
	}
	for _, name := range []string{"baseline-detail", "multicore-mix"} {
		def, err := findWorkload(name)
		if err != nil {
			t.Fatal(err)
		}
		res, _, err := run(options{def: def, seed: 1, scale: testScale, reference: wrong}, io.Discard)
		if err != nil {
			t.Fatal(err)
		}
		if res.Correct || res.Failed != res.Attempted || res.Attempted == 0 {
			t.Errorf("%s: correct=%v, %d of %d cells failed; want every cell failed",
				name, res.Correct, res.Failed, res.Attempted)
		}
	}
}

func at(ms int) time.Time { return time.Unix(0, 0).Add(time.Duration(ms) * time.Millisecond) }

func TestSelfTimeSubtractsChildUnion(t *testing.T) {
	spans := []span{
		{id: 1, name: "parent", start: at(0), end: at(10)},
		{id: 2, parent: 1, name: "a", start: at(1), end: at(4)},
		{id: 3, parent: 1, name: "b", start: at(3), end: at(6)},  // overlaps a
		{id: 4, parent: 1, name: "a", start: at(8), end: at(12)}, // runs past the parent
	}
	total, self := layerTimes(spans)
	if got := self["parent"]; got < 0.0029 || got > 0.0031 {
		t.Errorf("parent self = %v s, want 0.003", got)
	}
	if got := total["a"]; got < 0.0069 || got > 0.0071 {
		t.Errorf("a total = %v s, want 0.007", got)
	}
}

func TestChromeLanesNest(t *testing.T) {
	spans := []span{
		{id: 1, name: "run", start: at(0), end: at(10)},
		{id: 2, parent: 1, name: "ff", start: at(1), end: at(6)},
		{id: 3, parent: 1, name: "window", start: at(3), end: at(8)}, // overlaps ff
	}
	var buf bytes.Buffer
	if err := encodeChrome(&buf, spans, at(0), nil); err != nil {
		t.Fatal(err)
	}
	var doc struct{ TraceEvents []chromeEvent }
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	tid := map[string]int{}
	for _, ev := range doc.TraceEvents {
		tid[ev.Name] = ev.Tid
	}
	if tid["run"] != tid["ff"] || tid["window"] == tid["ff"] {
		t.Errorf("lanes %v: ff should nest in run, window needs its own lane", tid)
	}
}

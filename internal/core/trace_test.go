package core

import (
	"encoding/json"
	"strings"
	"testing"

	"runaheadsim/internal/trace"
)

func TestTracerEmitsPipelineEvents(t *testing.T) {
	var sb strings.Builder
	c := New(testConfig(ModeNone), simpleLoop())
	c.SetEventSink(trace.NewTextSink(&sb), 0)
	c.Run(200)
	out := sb.String()
	for _, want := range []string{"fetch", "dispatch", "issue", "complete", "commit"} {
		if !strings.Contains(out, want) {
			t.Fatalf("trace missing %q events:\n%.500s", want, out)
		}
	}
	if !strings.Contains(out, "cycle=") {
		t.Fatal("trace lines must carry cycles")
	}
}

func TestTracerRunaheadEvents(t *testing.T) {
	var sb strings.Builder
	c := New(testConfig(ModeBufferCC), gatherLoop(8))
	c.SetEventSink(trace.NewTextSink(&sb), 0)
	c.Run(5_000)
	out := sb.String()
	if !strings.Contains(out, "runahead enter") || !strings.Contains(out, "mode=buffer") {
		t.Fatal("trace missing runahead entry")
	}
	if !strings.Contains(out, "runahead exit") {
		t.Fatal("trace missing runahead exit")
	}
	if !strings.Contains(out, "pretire") {
		t.Fatal("trace missing pseudo-retirement")
	}
	if !strings.Contains(out, "from=buffer") {
		t.Fatal("trace missing buffer-injected dispatches")
	}
}

func TestTracerLimitStopsOutput(t *testing.T) {
	var sb strings.Builder
	c := New(testConfig(ModeNone), simpleLoop())
	c.SetEventSink(trace.NewTextSink(&sb), 50)
	c.Run(2_000)
	for _, line := range strings.Split(strings.TrimSpace(sb.String()), "\n") {
		if !strings.HasPrefix(line, "cycle=") {
			continue
		}
		var cy int64
		if _, err := fmtSscanf(line, &cy); err != nil {
			t.Fatalf("unparseable trace line %q", line)
		}
		// The limit is exclusive: tracing runs while now < limit, so the
		// last possible traced cycle is limit-1.
		if cy >= 50 {
			t.Fatalf("trace line at or beyond the limit: %q", line)
		}
	}
	c.SetEventSink(nil, 0)
	n := sb.Len()
	c.Run(3_000)
	if sb.Len() != n {
		t.Fatal("disabled tracer still wrote")
	}
}

// TestTracerLimitBoundary pins the exclusive-limit contract directly on the
// on() predicate: cycle limit-1 is traced, cycle limit is not.
func TestTracerLimitBoundary(t *testing.T) {
	tr := &Tracer{limit: 50}
	if !tr.on(49) {
		t.Fatal("cycle limit-1 must be traced")
	}
	if tr.on(50) {
		t.Fatal("cycle == limit must not be traced (limit is exclusive)")
	}
	unlimited := &Tracer{limit: 0}
	if !unlimited.on(1 << 40) {
		t.Fatal("limit <= 0 means unlimited tracing")
	}
}

// TestEventSinkJSONLThroughCore runs a memory-bound workload with the JSONL
// sink attached and checks that every line parses and that the memory-system
// event kinds (llc-miss, dram-access, sample) show up alongside the pipeline
// kinds.
func TestEventSinkJSONLThroughCore(t *testing.T) {
	var sb strings.Builder
	c := New(testConfig(ModeBufferCC), gatherLoop(8))
	c.SetEventSink(trace.NewJSONLSink(&sb), 0)
	c.Run(5_000)
	if err := c.CloseEventSink(); err != nil {
		t.Fatalf("close: %v", err)
	}
	kinds := map[string]int{}
	for _, line := range strings.Split(strings.TrimSpace(sb.String()), "\n") {
		var ev map[string]any
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("unparseable JSONL line %q: %v", line, err)
		}
		k, _ := ev["kind"].(string)
		kinds[k]++
	}
	for _, want := range []string{"fetch", "dispatch", "issue", "complete", "commit",
		"runahead-enter", "runahead-exit", "llc-miss", "dram", "sample"} {
		if kinds[want] == 0 {
			t.Errorf("no %q events in JSONL trace (kinds seen: %v)", want, kinds)
		}
	}
}

// TestEventSinkChromeThroughCore runs with the Chrome sink attached and checks
// the output is a valid trace_event JSON document.
func TestEventSinkChromeThroughCore(t *testing.T) {
	var sb strings.Builder
	c := New(testConfig(ModeBufferCC), gatherLoop(8))
	c.SetEventSink(trace.NewChromeSink(&sb), 0)
	c.Run(5_000)
	if err := c.CloseEventSink(); err != nil {
		t.Fatalf("close: %v", err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(sb.String()), &doc); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("chrome trace has no events")
	}
}

// TestTracerSquashEvents checks that branch mispredictions produce squash
// events on a branchy workload.
func TestTracerSquashEvents(t *testing.T) {
	var sb strings.Builder
	c := New(testConfig(ModeNone), simpleLoop())
	c.SetEventSink(trace.NewTextSink(&sb), 0)
	c.Run(2_000)
	if c.Stats().SquashedUops > 0 && !strings.Contains(sb.String(), "squash") {
		t.Fatal("uops were squashed but no squash events were traced")
	}
}

// fmtSscanf extracts the cycle number from a trace line.
func fmtSscanf(line string, cy *int64) (int, error) {
	rest := strings.TrimPrefix(line, "cycle=")
	i := strings.IndexByte(rest, ' ')
	if i < 0 {
		i = len(rest)
	}
	var v int64
	for _, ch := range rest[:i] {
		if ch < '0' || ch > '9' {
			return 0, errBadTrace
		}
		v = v*10 + int64(ch-'0')
	}
	*cy = v
	return 1, nil
}

var errBadTrace = errorString("bad trace line")

type errorString string

func (e errorString) Error() string { return string(e) }

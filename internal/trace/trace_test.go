package trace

import (
	"encoding/json"
	"strings"
	"testing"
)

// events is a small but representative stream: a full instruction lifetime,
// a runahead interval, memory traffic, and a counter sample.
func events() []Event {
	return []Event{
		{Cycle: 10, Kind: Fetch, Seq: 1, PC: 0x400048, Op: "muli", PredTaken: false},
		{Cycle: 12, Kind: Dispatch, Seq: 1, PC: 0x400048, ROBPos: 17},
		{Cycle: 13, Kind: Issue, Seq: 1, Op: "muli"},
		{Cycle: 16, Kind: Complete, Seq: 1, Op: "muli", Value: 90},
		{Cycle: 18, Kind: Commit, Seq: 1, PC: 0x400048, Start: 10},
		{Cycle: 20, Kind: Dispatch, Seq: 2, PC: 0x400050, ROBPos: 18, FromBuffer: true},
		{Cycle: 21, Kind: Complete, Seq: 2, Op: "ld", Value: 7, EA: 0x8000, Level: "Mem"},
		{Cycle: 22, Kind: Commit, Seq: 2, PC: 0x400050, Start: 20, Pseudo: true},
		{Cycle: 23, Kind: Squash, Seq: 3, PC: 0x400058},
		{Cycle: 40, Kind: RunaheadEnter, PC: 0x400080, Mode: "buffer", ChainLen: 9},
		{Cycle: 45, Kind: CacheMiss, Line: 0x9000},
		{Cycle: 50, Kind: DRAMAccess, Line: 0x9000, RowHit: true},
		{Cycle: 60, Kind: Sample, ROBOcc: 57, MSHROcc: 4},
		{Cycle: 90, Kind: RunaheadExit, Misses: 7},
	}
}

func emitAll(t *testing.T, s Sink) {
	t.Helper()
	evs := events()
	for i := range evs {
		s.Emit(&evs[i])
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

func TestTextSinkFormat(t *testing.T) {
	var sb strings.Builder
	emitAll(t, NewTextSink(&sb))
	out := sb.String()
	for _, want := range []string{
		"cycle=10 fetch    seq=1 pc=0x400048 muli predTaken=false",
		"cycle=12 dispatch seq=1 pc=0x400048 rob=17",
		"cycle=13 issue    seq=1 muli",
		"cycle=16 complete seq=1 muli val=90",
		"cycle=18 commit   seq=1 pc=0x400048",
		"from=buffer",
		"ea=0x8000 lvl=Mem",
		"cycle=22 pretire  seq=2",
		"cycle=23 squash   seq=3",
		"cycle=40 runahead enter pc=0x400080 mode=buffer chain=9",
		"cycle=45 llcmiss  line=0x9000 side=data",
		"cycle=50 dram     line=0x9000 op=read rowhit=true",
		"cycle=60 sample   rob=57 mshr=4",
		"cycle=90 runahead exit  misses=7",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("text output missing %q:\n%s", want, out)
		}
	}
}

func TestJSONLSinkEveryLineParses(t *testing.T) {
	var sb strings.Builder
	emitAll(t, NewJSONLSink(&sb))
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if len(lines) != len(events()) {
		t.Fatalf("got %d lines, want %d", len(lines), len(events()))
	}
	kinds := map[string]bool{}
	for _, line := range lines {
		var m map[string]any
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Fatalf("unparseable JSONL line %q: %v", line, err)
		}
		if _, ok := m["cycle"].(float64); !ok {
			t.Fatalf("line missing numeric cycle: %q", line)
		}
		k, ok := m["kind"].(string)
		if !ok {
			t.Fatalf("line missing kind: %q", line)
		}
		kinds[k] = true
	}
	for _, want := range []string{"fetch", "dispatch", "issue", "complete", "commit",
		"squash", "runahead-enter", "runahead-exit", "llc-miss", "dram", "sample"} {
		if !kinds[want] {
			t.Errorf("JSONL stream missing kind %q", want)
		}
	}
}

// chromeEvent mirrors the trace_event record fields the test validates.
type chromeEvent struct {
	Name string  `json:"name"`
	Ph   string  `json:"ph"`
	TS   float64 `json:"ts"`
	Dur  float64 `json:"dur"`
	PID  int     `json:"pid"`
	TID  int     `json:"tid"`
}

type chromeDoc struct {
	TraceEvents []chromeEvent `json:"traceEvents"`
}

func TestChromeSinkIsValidTraceEventJSON(t *testing.T) {
	var sb strings.Builder
	emitAll(t, NewChromeSink(&sb))
	var doc chromeDoc
	if err := json.Unmarshal([]byte(sb.String()), &doc); err != nil {
		t.Fatalf("chrome output is not valid JSON: %v\n%s", err, sb.String())
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("no traceEvents")
	}
	depth := 0
	var sawX, sawCounter, sawInstant, sawMeta bool
	for _, ev := range doc.TraceEvents {
		switch ev.Ph {
		case "B":
			depth++
		case "E":
			depth--
			if depth < 0 {
				t.Fatal("E before matching B on the runahead track")
			}
		case "X":
			sawX = true
			if ev.Dur < 0 {
				t.Errorf("negative duration slice: %+v", ev)
			}
		case "C":
			sawCounter = true
		case "i":
			sawInstant = true
		case "M":
			sawMeta = true
			continue // metadata records carry no ts
		default:
			t.Errorf("unexpected phase %q", ev.Ph)
		}
		if ev.PID != chromePID {
			t.Errorf("event with wrong pid: %+v", ev)
		}
	}
	if depth != 0 {
		t.Errorf("unbalanced B/E slices: depth %d at end", depth)
	}
	if !sawX || !sawCounter || !sawInstant || !sawMeta {
		t.Errorf("missing record classes: X=%v C=%v i=%v M=%v", sawX, sawCounter, sawInstant, sawMeta)
	}
}

// TestChromeSinkClosesOpenInterval checks the trailer balances a trace that
// ends mid-runahead (a truncated run must still load in Perfetto).
func TestChromeSinkClosesOpenInterval(t *testing.T) {
	var sb strings.Builder
	s := NewChromeSink(&sb)
	s.Emit(&Event{Cycle: 10, Kind: RunaheadEnter, Mode: "traditional"})
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	var doc chromeDoc
	if err := json.Unmarshal([]byte(sb.String()), &doc); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	depth := 0
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "B" {
			depth++
		}
		if ev.Ph == "E" {
			depth--
		}
	}
	if depth != 0 {
		t.Errorf("open interval not closed: depth %d", depth)
	}
}

func TestNewSinkFactory(t *testing.T) {
	var sb strings.Builder
	for _, f := range []string{"", FormatText, FormatJSONL, FormatChrome} {
		if _, err := NewSink(f, &sb); err != nil {
			t.Errorf("NewSink(%q): %v", f, err)
		}
	}
	if _, err := NewSink("xml", &sb); err == nil {
		t.Error("NewSink accepted an unknown format")
	}
}

package trace

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func TestRingWraparound(t *testing.T) {
	r := NewRing(4)
	if r.Len() != 0 {
		t.Fatal("fresh ring must be empty")
	}
	for i := 0; i < 6; i++ {
		r.Record(&Event{Cycle: int64(i), Kind: DRAMAccess, Line: uint64(i)})
	}
	if r.Len() != 4 {
		t.Fatalf("len = %d, want 4", r.Len())
	}
	evs := r.Events()
	for i, ev := range evs {
		if want := int64(i + 2); ev.Cycle != want {
			t.Fatalf("events[%d].Cycle = %d, want %d (oldest-first after wrap)", i, ev.Cycle, want)
		}
	}
}

func TestRingPartialFill(t *testing.T) {
	r := NewRing(8)
	r.Record(&Event{Cycle: 1, Kind: CacheMiss, Line: 0x40})
	r.Record(&Event{Cycle: 2, Kind: RunaheadEnter, PC: 0x80, Mode: "buffer"})
	evs := r.Events()
	if len(evs) != 2 || evs[0].Cycle != 1 || evs[1].Cycle != 2 {
		t.Fatalf("unexpected events: %+v", evs)
	}
}

func TestRingDumpJSONL(t *testing.T) {
	r := NewRing(3)
	for i := 0; i < 5; i++ {
		r.Record(&Event{Cycle: int64(10 + i), Kind: DRAMAccess, Line: uint64(0x1000 + i), RowHit: i%2 == 0})
	}
	r.Mark(99, "watchdog: no progress")
	var buf bytes.Buffer
	if err := r.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("dump has %d lines, want 3 (ring capacity):\n%s", len(lines), buf.String())
	}
	// Every line is valid JSON; the last is the mark.
	for _, ln := range lines {
		var m map[string]any
		if err := json.Unmarshal([]byte(ln), &m); err != nil {
			t.Fatalf("invalid JSONL line %q: %v", ln, err)
		}
	}
	var last map[string]any
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatal(err)
	}
	if last["kind"] != "mark" || last["msg"] != "watchdog: no progress" || last["cycle"] != float64(99) {
		t.Fatalf("mark event wrong: %v", last)
	}
	// Oldest retained event survived the wrap in order.
	if !strings.Contains(lines[0], `"cycle":13`) {
		t.Fatalf("first dumped line should be cycle 13: %q", lines[0])
	}
}

func TestRingAsSink(t *testing.T) {
	r := NewRing(16)
	var s Sink = r
	ev := Event{Cycle: 7, Kind: Squash, Seq: 3, PC: 0x44}
	s.Emit(&ev)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if r.Len() != 1 || r.Events()[0].Seq != 3 {
		t.Fatal("ring must retain emitted events")
	}
	// The ring copies: mutating the caller's event after Emit must not
	// change what was recorded.
	ev.Seq = 999
	if r.Events()[0].Seq != 3 {
		t.Fatal("ring must copy events, not retain pointers")
	}
}

package trace

import (
	"bytes"
	"encoding/json"
	"fmt"
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

// TestRingMarksSurviveWrap checks that Mark messages stay paired with
// their records while the ring overwrites some of them.
func TestRingMarksSurviveWrap(t *testing.T) {
	r := NewRing(3)
	for i := 0; i < 20; i++ {
		if i%2 == 0 {
			r.Mark(int64(i), fmt.Sprintf("mark %d", i))
		} else {
			r.Record(&Event{Cycle: int64(i), Kind: RunaheadExit, Misses: uint64(i)})
		}
		live := 0
		for _, ev := range r.Events() {
			if ev.Kind != Mark {
				continue
			}
			live++
			if ev.Op != fmt.Sprintf("mark %d", ev.Cycle) {
				t.Fatalf("after %d records the mark at cycle %d reads %q", i+1, ev.Cycle, ev.Op)
			}
		}
		if len(r.msgs)-r.msgHead != live || len(r.msgs) > 2*r.Len() {
			t.Fatalf("after %d records %d messages are queued from %d, for %d live marks", i+1, len(r.msgs), r.msgHead, live)
		}
	}
}

func TestRingRejectsPerUopKinds(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("recording a fetch event did not panic")
		}
	}()
	NewRing(4).Record(&Event{Kind: Fetch, Seq: 1, Op: "ld"})
}

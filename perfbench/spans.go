package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer: the benchmark records one around each
// call it makes into the simulator, and the harness.Monitor callbacks add the
// phases the harness runs on its own goroutines.
type span struct {
	id     int
	parent int // 0 for a root span
	cell   int // the cell the span belongs to, 0 for pass-level spans
	name   string
	start  time.Time
	end    time.Time
}

func (s *span) dur() time.Duration { return s.end.Sub(s.start) }

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so the untraced passes call the same code at no cost.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id (0 when tracing is off).
func (t *tracer) begin(name string, parent, cell int) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{id: len(t.spans) + 1, parent: parent, cell: cell, name: name, start: time.Now()})
	return len(t.spans)
}

// end closes the span begin returned.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Now()
	t.mu.Lock()
	t.spans[id-1].end = now
	t.mu.Unlock()
}

// since returns the closed spans with ids above from, so a caller can
// summarize one pass at a time.
func (t *tracer) since(from int) []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, s := range t.spans[from:] {
		if !s.end.IsZero() {
			out = append(out, s)
		}
	}
	return out
}

func (t *tracer) len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// layerTimes sums span durations by name, and self time by name: a span's
// duration minus the part of it that its children cover. Children can
// overlap (the sampled fast-forward runs beside the detailed windows), so the
// covered part is the union of the child intervals, clipped to the parent.
func layerTimes(spans []span) (total, self map[string]float64) {
	total = make(map[string]float64)
	self = make(map[string]float64)
	kids := make(map[int][]span)
	for _, s := range spans {
		kids[s.parent] = append(kids[s.parent], s)
	}
	for _, s := range spans {
		d := s.dur().Seconds()
		total[s.name] += d
		self[s.name] += d - covered(s, kids[s.id]).Seconds()
	}
	return total, self
}

// covered returns how much of parent's interval the union of kids covers.
func covered(parent span, kids []span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]time.Time, 0, len(kids))
	for _, k := range kids {
		a, b := k.start, k.end
		if a.Before(parent.start) {
			a = parent.start
		}
		if b.After(parent.end) {
			b = parent.end
		}
		if b.After(a) {
			iv = append(iv, [2]time.Time{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0].Before(iv[j][0]) })
	var sum time.Duration
	var curA, curB time.Time
	for i, x := range iv {
		switch {
		case i == 0:
			curA, curB = x[0], x[1]
		case x[0].After(curB):
			sum += curB.Sub(curA)
			curA, curB = x[0], x[1]
		case x[1].After(curB):
			curB = x[1]
		}
	}
	if len(iv) > 0 {
		sum += curB.Sub(curA)
	}
	return sum
}

// writeChromeTrace writes the spans as Chrome trace_event JSON (the JSON
// object format with a traceEvents array), which Perfetto opens. Each span is
// one complete ("X") event in microseconds from the run start. Spans are laid
// out on lanes so that every lane holds only disjoint or properly nested
// slices; env rides along as otherData.
func writeChromeTrace(path string, t *tracer, env map[string]any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("trace dir: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace file: %w", err)
	}
	w := bufio.NewWriter(f)
	if err := encodeChrome(w, t.since(0), t.t0, env); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("trace file: %w", err)
	}
	return f.Close()
}

type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts,omitempty"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

func encodeChrome(w io.Writer, spans []span, t0 time.Time, env map[string]any) error {
	sort.SliceStable(spans, func(i, j int) bool {
		if !spans[i].start.Equal(spans[j].start) {
			return spans[i].start.Before(spans[j].start)
		}
		return spans[i].end.After(spans[j].end)
	})
	// Greedy lane assignment: a span goes on the first lane whose innermost
	// open slice still running at its start contains it entirely.
	var lanes [][]time.Time // per lane, the end times of the open slices
	events := []chromeEvent{{Name: "process_name", Ph: "M", Pid: 1, Args: map[string]any{"name": "perfbench"}}}
	for _, s := range spans {
		lane := -1
		for i := range lanes {
			st := lanes[i]
			for len(st) > 0 && !st[len(st)-1].After(s.start) {
				st = st[:len(st)-1]
			}
			lanes[i] = st
			if len(st) == 0 || !s.end.After(st[len(st)-1]) {
				lane = i
				break
			}
		}
		if lane < 0 {
			lanes = append(lanes, nil)
			lane = len(lanes) - 1
		}
		lanes[lane] = append(lanes[lane], s.end)
		events = append(events, chromeEvent{
			Name: s.name, Ph: "X", Pid: 1, Tid: lane + 1,
			Ts:   float64(s.start.Sub(t0).Nanoseconds()) / 1e3,
			Dur:  float64(s.dur().Nanoseconds()) / 1e3,
			Args: map[string]any{"id": s.id, "parent": s.parent, "cell": s.cell},
		})
	}
	doc := map[string]any{"displayTimeUnit": "ms", "traceEvents": events, "otherData": env}
	enc := json.NewEncoder(w)
	if err := enc.Encode(doc); err != nil {
		return fmt.Errorf("trace encode: %w", err)
	}
	return nil
}

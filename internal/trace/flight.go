package trace

import (
	"bufio"
	"io"
)

// Ring is the flight recorder: a fixed-size ring of the most recent events,
// cheap enough to leave on for every run. Unlike a Sink-driven trace file it
// never touches I/O during simulation — Record is one struct copy into a
// preallocated buffer — and it retains only the last capacity events, so a
// multi-billion-cycle run carries the same memory cost as a short one.
//
// When a run dies (watchdog trip, simcheck violation, worker panic), the
// owner dumps the ring as JSONL and the opaque hang becomes an attributable
// event trace: the last misses, DRAM grants, runahead transitions, and
// occupancy samples leading up to the wedge.
//
// Ring is single-goroutine, like the core that feeds it. It implements Sink
// so anything that emits trace events can feed it.
type Ring struct {
	buf  []Event
	next int
	full bool
}

// NewRing returns a flight recorder retaining the last capacity events.
func NewRing(capacity int) *Ring {
	if capacity <= 0 {
		panic("trace: flight ring needs positive capacity")
	}
	return &Ring{buf: make([]Event, capacity)}
}

// Record copies one event into the ring, overwriting the oldest when full.
func (r *Ring) Record(ev *Event) {
	r.buf[r.next] = *ev
	r.next++
	if r.next == len(r.buf) {
		r.next = 0
		r.full = true
	}
}

// Emit implements Sink.
func (r *Ring) Emit(ev *Event) { r.Record(ev) }

// Close implements Sink; the ring holds no I/O to flush.
func (r *Ring) Close() error { return nil }

// Len returns the number of retained events.
func (r *Ring) Len() int {
	if r.full {
		return len(r.buf)
	}
	return r.next
}

// Events returns the retained events, oldest first.
func (r *Ring) Events() []Event {
	out := make([]Event, 0, r.Len())
	if r.full {
		out = append(out, r.buf[r.next:]...)
	}
	out = append(out, r.buf[:r.next]...)
	return out
}

// Mark records an out-of-band annotation (kind "mark") — the terminal
// condition a crash dump should end with.
func (r *Ring) Mark(cycle int64, msg string) {
	r.Record(&Event{Cycle: cycle, Kind: Mark, Op: msg})
}

// WriteJSONL dumps the retained events, oldest first, one JSON object per
// line — the same encoding as the JSONL trace sink, so existing tooling
// reads flight dumps unchanged.
func (r *Ring) WriteJSONL(w io.Writer) error {
	bw := bufio.NewWriter(w)
	s := NewJSONLSink(bw)
	if r.full {
		for i := r.next; i < len(r.buf); i++ {
			s.Emit(&r.buf[i])
		}
	}
	for i := 0; i < r.next; i++ {
		s.Emit(&r.buf[i])
	}
	if err := s.Close(); err != nil {
		return err
	}
	return bw.Flush()
}

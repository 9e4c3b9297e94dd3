package trace

import (
	"bufio"
	"io"
)

// Runahead modes a RunaheadEnter event names, and the only two the flight
// ring can hold.
const (
	ModeBuffer      = "buffer"
	ModeTraditional = "traditional"
)

// Ring is the flight recorder: a fixed-size ring of the most recent events,
// cheap enough to leave on for every run. Unlike a Sink-driven trace file it
// never touches I/O during simulation — Record is one small copy into a
// preallocated buffer — and it retains only the last capacity events, so a
// multi-billion-cycle run carries the same memory cost as a short one.
//
// When a run dies (watchdog trip, simcheck violation, worker panic), the
// owner dumps the ring as JSONL and the opaque hang becomes an attributable
// event trace: the last misses, DRAM grants, runahead transitions, and
// occupancy samples leading up to the wedge.
//
// The ring holds the coarse kinds a core records — Sample, RunaheadEnter,
// RunaheadExit, CacheMiss, DRAMAccess and Mark — as pointer-free records
// of only their fields, and rebuilds full Events when read. Mark messages
// live in a side queue. Ring is single-goroutine, like the core that feeds
// it.
type Ring struct {
	buf  []record
	next int
	full bool

	// msgs holds the messages of the retained Mark records from msgHead on,
	// oldest first: the i-th Mark met reading the ring oldest-first is
	// msgs[msgHead+i].
	msgs    []string
	msgHead int
}

// record is one retained event. a is the PC (RunaheadEnter), the miss count
// (RunaheadExit) or the line (CacheMiss, DRAMAccess); b and c are the chain
// length (RunaheadEnter) or the ROB and MSHR occupancies (Sample).
type record struct {
	cycle int64
	a     uint64
	b, c  int32
	kind  Kind
	flags uint8
}

// record flag bits.
const (
	flagInstr  = 1 << iota // CacheMiss: instruction-side miss
	flagWrite              // DRAMAccess
	flagRowHit             // DRAMAccess
	flagBuffer             // RunaheadEnter: mode "buffer", else "traditional"
)

// NewRing returns a flight recorder retaining the last capacity events.
func NewRing(capacity int) *Ring {
	if capacity <= 0 {
		panic("trace: flight ring needs positive capacity")
	}
	return &Ring{buf: make([]record, capacity)}
}

// Record copies one event into the ring, overwriting the oldest when full.
// A Mark's message is kept; any other kind outside the six a core records,
// or a RunaheadEnter mode other than ModeBuffer and ModeTraditional, panics.
// Counts narrow to 32 bits.
func (r *Ring) Record(ev *Event) {
	rec := record{cycle: ev.Cycle, kind: ev.Kind}
	switch ev.Kind {
	case Sample:
		rec.b, rec.c = int32(ev.ROBOcc), int32(ev.MSHROcc)
	case RunaheadEnter:
		rec.a, rec.b = ev.PC, int32(ev.ChainLen)
		switch ev.Mode {
		case ModeBuffer:
			rec.flags = flagBuffer
		case ModeTraditional:
		default:
			panic("trace: flight ring records only the buffer and traditional runahead modes")
		}
	case RunaheadExit:
		rec.a = ev.Misses
	case CacheMiss:
		rec.a = ev.Line
		if ev.Instr {
			rec.flags = flagInstr
		}
	case DRAMAccess:
		rec.a = ev.Line
		if ev.Write {
			rec.flags |= flagWrite
		}
		if ev.RowHit {
			rec.flags |= flagRowHit
		}
	case Mark:
		r.pushMsg(ev.Op)
	default:
		panic("trace: flight ring records only sample, runahead, miss, DRAM and mark events")
	}
	if r.full && r.buf[r.next].kind == Mark {
		r.msgs[r.msgHead] = ""
		r.msgHead++
	}
	r.buf[r.next] = rec
	r.next++
	if r.next == len(r.buf) {
		r.next = 0
		r.full = true
	}
}

// pushMsg queues a Mark message, first sliding the live messages to the
// front once the dropped ones fill half the queue, so it stays within twice
// the live count.
func (r *Ring) pushMsg(msg string) {
	if r.msgHead > 0 && 2*r.msgHead >= len(r.msgs) {
		n := copy(r.msgs, r.msgs[r.msgHead:])
		clear(r.msgs[n:])
		r.msgs, r.msgHead = r.msgs[:n], 0
	}
	r.msgs = append(r.msgs, msg)
}

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
	r.each(func(ev *Event) { out = append(out, *ev) })
	return out
}

// each rebuilds the retained events, oldest first, into one reused Event.
func (r *Ring) each(fn func(*Event)) {
	var ev Event
	msg := r.msgHead
	emit := func(rec *record) {
		ev = Event{Cycle: rec.cycle, Kind: rec.kind}
		switch rec.kind {
		case Sample:
			ev.ROBOcc, ev.MSHROcc = int(rec.b), int(rec.c)
		case RunaheadEnter:
			ev.PC, ev.ChainLen, ev.Mode = rec.a, int(rec.b), ModeTraditional
			if rec.flags&flagBuffer != 0 {
				ev.Mode = ModeBuffer
			}
		case RunaheadExit:
			ev.Misses = rec.a
		case CacheMiss:
			ev.Line, ev.Instr = rec.a, rec.flags&flagInstr != 0
		case DRAMAccess:
			ev.Line, ev.Write, ev.RowHit = rec.a, rec.flags&flagWrite != 0, rec.flags&flagRowHit != 0
		case Mark:
			ev.Op = r.msgs[msg]
			msg++
		}
		fn(&ev)
	}
	if r.full {
		for i := r.next; i < len(r.buf); i++ {
			emit(&r.buf[i])
		}
	}
	for i := 0; i < r.next; i++ {
		emit(&r.buf[i])
	}
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
	r.each(s.Emit)
	if err := s.Close(); err != nil {
		return err
	}
	return bw.Flush()
}

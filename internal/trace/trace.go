// Package trace is the simulator's structured event layer: the core (and the
// memory system through it) emits typed pipeline events, and pluggable sinks
// render them — as the classic one-line-per-event text log, as JSONL for
// machine consumption, or as Chrome trace_event JSON that opens directly in
// Perfetto or chrome://tracing with per-stage tracks, a runahead-mode track,
// and ROB/MSHR counter tracks.
//
// The package is a leaf: it depends only on the standard library, so every
// simulator component can emit events without import cycles. Emission cost
// when tracing is disabled is a single nil check at the call site; sinks are
// only invoked for events that survive the caller's cycle-limit filter.
package trace

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
)

// Kind enumerates the event types the simulator emits.
type Kind uint8

// Event kinds. Per-instruction events carry Seq/PC/Op; the memory events
// carry line addresses; Sample carries occupancy snapshots for counter
// tracks.
const (
	// Fetch: an instruction entered the front end (Seq, PC, Op, PredTaken).
	Fetch Kind = iota
	// Dispatch: renamed and inserted into the ROB (Seq, PC, ROBPos,
	// FromBuffer).
	Dispatch
	// Issue: selected for execution (Seq, Op).
	Issue
	// Complete: finished execution (Seq, Op, Value, Poisoned, EA, Level).
	Complete
	// Commit: retired on the correct path, or pseudo-retired during runahead
	// when Pseudo is set (Seq, PC, Start = fetch cycle).
	Commit
	// Squash: removed from the window by a misprediction or flush (Seq, PC).
	Squash
	// RunaheadEnter: the core entered runahead (PC, Mode, ChainLen).
	RunaheadEnter
	// RunaheadExit: the core left runahead (Misses = new DRAM misses found).
	RunaheadExit
	// CacheMiss: an LLC demand miss (Line, Instr).
	CacheMiss
	// DRAMAccess: the memory controller granted a request (Line, Write,
	// RowHit).
	DRAMAccess
	// Sample: a periodic occupancy snapshot (ROBOcc, MSHROcc) feeding the
	// Chrome counter tracks.
	Sample
	// Mark: an out-of-band annotation (Op carries the message). The flight
	// recorder uses it to pin terminal conditions — a watchdog trip, a
	// simcheck violation — into the ring right before the dump.
	Mark

	numKinds
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case Fetch:
		return "fetch"
	case Dispatch:
		return "dispatch"
	case Issue:
		return "issue"
	case Complete:
		return "complete"
	case Commit:
		return "commit"
	case Squash:
		return "squash"
	case RunaheadEnter:
		return "runahead-enter"
	case RunaheadExit:
		return "runahead-exit"
	case CacheMiss:
		return "llc-miss"
	case DRAMAccess:
		return "dram"
	case Sample:
		return "sample"
	case Mark:
		return "mark"
	default:
		return "unknown"
	}
}

// Event is one structured pipeline event. It is a flat struct — only the
// fields relevant to the Kind are meaningful — so emission never allocates
// beyond the event itself and sinks can switch on Kind without type
// assertions.
type Event struct {
	Cycle int64
	Kind  Kind

	// Instruction identity (per-instruction kinds).
	Seq uint64
	PC  uint64
	Op  string

	// Stage payloads.
	ROBPos     int   // Dispatch
	Value      int64 // Complete
	EA         uint64
	Level      string // Complete: deepest memory level reached ("L1"/"LLC"/"Mem")
	Poisoned   bool
	FromBuffer bool  // Dispatch: injected from the runahead buffer
	Pseudo     bool  // Commit: runahead pseudo-retirement
	PredTaken  bool  // Fetch
	Start      int64 // Commit: the instruction's fetch cycle (lifetime track)

	// Runahead interval payloads.
	Mode     string // RunaheadEnter: "buffer" or "traditional"
	ChainLen int    // RunaheadEnter: dependence-chain length (buffer mode)
	Misses   uint64 // RunaheadExit: new DRAM misses generated in the interval

	// Memory system payloads.
	Line   uint64 // CacheMiss, DRAMAccess
	Instr  bool   // CacheMiss: instruction-side miss
	Write  bool   // DRAMAccess
	RowHit bool   // DRAMAccess

	// Sample payloads.
	ROBOcc  int
	MSHROcc int
}

// Sink consumes events. Emit must not retain ev past the call — emitters
// reuse event storage. Close flushes buffered output and finalizes formats
// that need a trailer (the Chrome sink's closing bracket).
type Sink interface {
	Emit(ev *Event)
	Close() error
}

// Formats accepted by NewSink.
const (
	FormatText   = "text"
	FormatJSONL  = "jsonl"
	FormatChrome = "chrome"
)

// NewSink builds a sink writing the given format to w. Supported formats:
// "text" (the classic line-per-event log), "jsonl" (one JSON object per
// line), and "chrome" (Chrome trace_event JSON for Perfetto).
func NewSink(format string, w io.Writer) (Sink, error) {
	switch format {
	case "", FormatText:
		return NewTextSink(w), nil
	case FormatJSONL:
		return NewJSONLSink(w), nil
	case FormatChrome:
		return NewChromeSink(w), nil
	default:
		return nil, fmt.Errorf("trace: unknown format %q (have text, jsonl, chrome)", format)
	}
}

// TextSink renders the classic human-readable trace, one event per line:
//
//	cycle=123 fetch    seq=45 pc=0x400048 muli predTaken=false
//	cycle=125 dispatch seq=45 rob=17
//	cycle=127 issue    seq=45
//	cycle=128 complete seq=45 val=90
//	cycle=130 commit   seq=45
//	cycle=140 runahead enter pc=0x400080 mode=buffer chain=9
//	cycle=260 runahead exit  misses=7
//
// TextSink writes through unbuffered so lines appear as they happen (the
// live-watching use case); wrap w in a bufio.Writer for bulk capture.
type TextSink struct {
	w io.Writer
}

// NewTextSink returns a text sink writing to w.
func NewTextSink(w io.Writer) *TextSink {
	return &TextSink{w: w}
}

// Emit implements Sink.
func (s *TextSink) Emit(ev *Event) {
	fmt.Fprintf(s.w, "cycle=%d ", ev.Cycle)
	switch ev.Kind {
	case Fetch:
		fmt.Fprintf(s.w, "fetch    seq=%d pc=%#x %s predTaken=%v", ev.Seq, ev.PC, ev.Op, ev.PredTaken)
	case Dispatch:
		fmt.Fprintf(s.w, "dispatch seq=%d pc=%#x rob=%d", ev.Seq, ev.PC, ev.ROBPos)
		if ev.FromBuffer {
			fmt.Fprint(s.w, " from=buffer")
		}
	case Issue:
		fmt.Fprintf(s.w, "issue    seq=%d %s", ev.Seq, ev.Op)
	case Complete:
		fmt.Fprintf(s.w, "complete seq=%d %s val=%d", ev.Seq, ev.Op, ev.Value)
		switch {
		case ev.Poisoned:
			fmt.Fprint(s.w, " POISONED")
		case ev.Level != "":
			fmt.Fprintf(s.w, " ea=%#x lvl=%s", ev.EA, ev.Level)
		}
	case Commit:
		kind := "commit  "
		if ev.Pseudo {
			kind = "pretire "
		}
		fmt.Fprintf(s.w, "%s seq=%d pc=%#x", kind, ev.Seq, ev.PC)
	case Squash:
		fmt.Fprintf(s.w, "squash   seq=%d pc=%#x", ev.Seq, ev.PC)
	case RunaheadEnter:
		fmt.Fprintf(s.w, "runahead enter pc=%#x mode=%s chain=%d", ev.PC, ev.Mode, ev.ChainLen)
	case RunaheadExit:
		fmt.Fprintf(s.w, "runahead exit  misses=%d", ev.Misses)
	case CacheMiss:
		side := "data"
		if ev.Instr {
			side = "instr"
		}
		fmt.Fprintf(s.w, "llcmiss  line=%#x side=%s", ev.Line, side)
	case DRAMAccess:
		op := "read"
		if ev.Write {
			op = "write"
		}
		fmt.Fprintf(s.w, "dram     line=%#x op=%s rowhit=%v", ev.Line, op, ev.RowHit)
	case Sample:
		fmt.Fprintf(s.w, "sample   rob=%d mshr=%d", ev.ROBOcc, ev.MSHROcc)
	case Mark:
		fmt.Fprintf(s.w, "mark     %s", ev.Op)
	default:
		fmt.Fprintf(s.w, "%s", ev.Kind)
	}
	io.WriteString(s.w, "\n")
}

// Close is a no-op; TextSink does not buffer.
func (s *TextSink) Close() error { return nil }

// JSONLSink writes one JSON object per event per line. Fields irrelevant to
// the event kind are omitted, so logs stay compact and diffable.
type JSONLSink struct {
	w   *bufio.Writer
	buf []byte
}

// NewJSONLSink returns a JSONL sink writing to w.
func NewJSONLSink(w io.Writer) *JSONLSink {
	return &JSONLSink{w: bufio.NewWriter(w)}
}

// Emit implements Sink. The encoding is hand-rolled append-based JSON: the
// field set is small and fixed, and avoiding encoding/json keeps the sink off
// the allocator on the per-instruction hot path.
func (s *JSONLSink) Emit(ev *Event) {
	b := s.buf[:0]
	b = append(b, `{"cycle":`...)
	b = strconv.AppendInt(b, ev.Cycle, 10)
	b = append(b, `,"kind":"`...)
	b = append(b, ev.Kind.String()...)
	b = append(b, '"')
	switch ev.Kind {
	case Fetch, Dispatch, Issue, Complete, Commit, Squash:
		b = append(b, `,"seq":`...)
		b = strconv.AppendUint(b, ev.Seq, 10)
		if ev.PC != 0 {
			b = appendHexField(b, "pc", ev.PC)
		}
		if ev.Op != "" {
			b = append(b, `,"op":"`...)
			b = append(b, ev.Op...)
			b = append(b, '"')
		}
	}
	switch ev.Kind {
	case Fetch:
		b = appendBoolField(b, "predTaken", ev.PredTaken)
	case Dispatch:
		b = append(b, `,"rob":`...)
		b = strconv.AppendInt(b, int64(ev.ROBPos), 10)
		if ev.FromBuffer {
			b = appendBoolField(b, "fromBuffer", true)
		}
	case Complete:
		b = append(b, `,"val":`...)
		b = strconv.AppendInt(b, ev.Value, 10)
		if ev.Poisoned {
			b = appendBoolField(b, "poisoned", true)
		}
		if ev.Level != "" {
			b = appendHexField(b, "ea", ev.EA)
			b = append(b, `,"level":"`...)
			b = append(b, ev.Level...)
			b = append(b, '"')
		}
	case Commit:
		if ev.Pseudo {
			b = appendBoolField(b, "pseudo", true)
		}
		b = append(b, `,"fetchCycle":`...)
		b = strconv.AppendInt(b, ev.Start, 10)
	case RunaheadEnter:
		b = appendHexField(b, "pc", ev.PC)
		b = append(b, `,"mode":"`...)
		b = append(b, ev.Mode...)
		b = append(b, `","chain":`...)
		b = strconv.AppendInt(b, int64(ev.ChainLen), 10)
	case RunaheadExit:
		b = append(b, `,"misses":`...)
		b = strconv.AppendUint(b, ev.Misses, 10)
	case CacheMiss:
		b = appendHexField(b, "line", ev.Line)
		b = appendBoolField(b, "instr", ev.Instr)
	case DRAMAccess:
		b = appendHexField(b, "line", ev.Line)
		b = appendBoolField(b, "write", ev.Write)
		b = appendBoolField(b, "rowHit", ev.RowHit)
	case Sample:
		b = append(b, `,"rob":`...)
		b = strconv.AppendInt(b, int64(ev.ROBOcc), 10)
		b = append(b, `,"mshr":`...)
		b = strconv.AppendInt(b, int64(ev.MSHROcc), 10)
	case Mark:
		b = append(b, `,"msg":`...)
		b = strconv.AppendQuote(b, ev.Op)
	}
	b = append(b, '}', '\n')
	s.buf = b
	s.w.Write(b)
}

// Close flushes the sink.
func (s *JSONLSink) Close() error { return s.w.Flush() }

func appendHexField(b []byte, name string, v uint64) []byte {
	b = append(b, ',', '"')
	b = append(b, name...)
	b = append(b, `":"0x`...)
	b = strconv.AppendUint(b, v, 16)
	b = append(b, '"')
	return b
}

func appendBoolField(b []byte, name string, v bool) []byte {
	b = append(b, ',', '"')
	b = append(b, name...)
	b = append(b, '"', ':')
	b = strconv.AppendBool(b, v)
	return b
}

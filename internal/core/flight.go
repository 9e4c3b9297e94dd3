package core

import "runaheadsim/internal/trace"

// Flight recorder: an always-on ring of the most recent coarse trace events
// (runahead transitions, LLC misses, DRAM grants, occupancy samples), sized
// by Config.FlightRecorderEvents. It exists so that when a run dies — a
// watchdog trip, a simcheck violation, a worker panic — the owner can dump
// the last moments as JSONL instead of staring at an opaque hang.
//
// Cost discipline: the recorder never sees per-uop events (fetch, issue,
// commit), only per-miss / per-grant / per-transition ones plus one occupancy
// sample every flightSampleEvery executed cycles, so leaving it on costs a
// closure call per LLC miss rather than per instruction. Unlike a tracer it
// also does not clamp the clock warp: samples are diagnostic, so a warped
// span simply carries fewer of them.

const (
	// defaultFlightEvents sizes the ring when Config.FlightRecorderEvents is
	// zero: 512 records of 32 bytes (trace.Ring keeps only the fields of the
	// kinds it records) are 16 KB per core, and typically cover tens of
	// thousands of cycles of memory-system activity before a wedge.
	defaultFlightEvents = 512

	// flightSampleEvery is the occupancy-sample period in executed (unwarped)
	// cycles — deliberately coarser than the tracer's sampleInterval because
	// the ring is always on.
	flightSampleEvery = 256
)

// FlightRecorder returns the always-on flight recorder, or nil when
// Config.FlightRecorderEvents is negative. Callers that catch a dying run
// (harness workers, the CLIs' panic handlers) use it to write a crash dump:
//
//	if r := c.FlightRecorder(); r != nil && r.Len() > 0 {
//		r.WriteJSONL(f)
//	}
func (c *Core) FlightRecorder() *trace.Ring { return c.flight }

// FlightMark pins an out-of-band annotation into the flight recorder at the
// current cycle — the terminal condition a crash dump should end with (the
// watchdog message, a simcheck violation). No-op when the recorder is off.
func (c *Core) FlightMark(msg string) {
	if c.flight != nil {
		c.flight.Mark(c.now, msg)
	}
}

// installMemHooks (re)installs the memory-system event callbacks so they feed
// both the flight recorder and any attached tracer. Called from New and from
// SetEventSink, so attaching or detaching a tracer never disturbs the flight
// recorder's view. When neither consumer exists the hooks are nil and the
// memory system pays nothing.
func (c *Core) installMemHooks() {
	if c.flight == nil && c.tracer == nil {
		c.h.SetLLCMissHook(c.memReq, nil)
		c.h.SetGrantHook(c.memReq, nil)
		return
	}
	c.h.SetLLCMissHook(c.memReq, func(now int64, line uint64, instr bool) {
		ev := trace.Event{Cycle: now, Kind: trace.CacheMiss, Line: line, Instr: instr}
		if c.flight != nil {
			c.flight.Record(&ev)
		}
		if tr := c.tracer; tr != nil && tr.on(now) {
			tr.ev = ev
			tr.sink.Emit(&tr.ev)
		}
	})
	c.h.SetGrantHook(c.memReq, func(now int64, line uint64, write, rowHit bool) {
		ev := trace.Event{Cycle: now, Kind: trace.DRAMAccess, Line: line, Write: write, RowHit: rowHit}
		if c.flight != nil {
			c.flight.Record(&ev)
		}
		if tr := c.tracer; tr != nil && tr.on(now) {
			tr.ev = ev
			tr.sink.Emit(&tr.ev)
		}
	})
}

package core

import "runaheadsim/internal/trace"

// sampleInterval is how often an attached tracer emits occupancy Sample
// events (the Chrome sink's ROB/MSHR counter tracks).
const sampleInterval = 64

// Tracer forwards structured pipeline events to a trace.Sink until the cycle
// limit. The zero-cost default is off: every emission site in the pipeline is
// guarded by a single `c.tracer != nil` check, so a disabled tracer costs
// nothing on the hot path.
type Tracer struct {
	sink  trace.Sink
	limit int64 // stop tracing at this cycle (0 = no limit)
	ev    trace.Event
}

// SetEventSink attaches a structured event sink, replacing any previous one.
// Events are emitted for cycles strictly before limit ("trace until cycle
// limit"); limit 0 means no limit. Passing a nil sink disables tracing. The
// caller owns the sink and must Close it after the run to flush buffered
// output. The memory-system event hooks (LLC misses, DRAM grants) are shared
// with the always-on flight recorder — installMemHooks keeps them live for
// the recorder even while no tracer is attached.
func (c *Core) SetEventSink(s trace.Sink, limit int64) {
	if s == nil {
		c.tracer = nil
	} else {
		c.tracer = &Tracer{sink: s, limit: limit}
	}
	c.installMemHooks()
}

// CloseEventSink closes the attached sink (flushing buffered output and, for
// the Chrome sink, writing the document trailer) and detaches it. It is a
// no-op when no sink is attached.
func (c *Core) CloseEventSink() error {
	t := c.tracer
	c.SetEventSink(nil, 0)
	if t == nil {
		return nil
	}
	return t.sink.Close()
}

// on reports whether events at cycle now pass the limit filter: tracing runs
// until the limit cycle, i.e. the event at cycle == limit is NOT emitted.
func (t *Tracer) on(now int64) bool {
	return t.limit <= 0 || now < t.limit
}

// emit fills the tracer's reusable event with the common header and hands it
// to the sink. It is nil-safe: with no tracer attached (or past the cycle
// limit) it returns before touching the sink, so call sites need no guard of
// their own — though the hot-path helpers below keep one to skip building
// the Event value entirely.
func (c *Core) emit(ev trace.Event) {
	t := c.tracer
	if t == nil || !t.on(c.now) {
		return
	}
	ev.Cycle = c.now
	t.ev = ev
	t.sink.Emit(&t.ev)
}

func (c *Core) traceFetch(d *DynInst) {
	if c.tracer != nil {
		c.emit(trace.Event{Kind: trace.Fetch, Seq: d.Seq, PC: d.PC, Op: d.U.Op.String(), PredTaken: d.PredTaken})
	}
}

func (c *Core) traceDispatch(d *DynInst) {
	if c.tracer != nil {
		c.emit(trace.Event{Kind: trace.Dispatch, Seq: d.Seq, PC: d.PC, ROBPos: d.ROBPos, FromBuffer: d.FromBuffer})
	}
}

func (c *Core) traceIssue(d *DynInst) {
	if c.tracer != nil {
		c.emit(trace.Event{Kind: trace.Issue, Seq: d.Seq, Op: d.U.Op.String()})
	}
}

func (c *Core) traceComplete(d *DynInst) {
	if c.tracer != nil {
		ev := trace.Event{Kind: trace.Complete, Seq: d.Seq, Op: d.U.Op.String(), Value: d.Value, Poisoned: d.Poisoned}
		if !d.Poisoned && d.U.Op.IsMem() {
			ev.EA, ev.Level = d.EA, d.MemLevel.String()
		}
		c.emit(ev)
	}
}

func (c *Core) traceCommit(d *DynInst, pseudo bool) {
	if c.tracer != nil {
		c.emit(trace.Event{Kind: trace.Commit, Seq: d.Seq, PC: d.PC, Op: d.U.Op.String(), Pseudo: pseudo, Start: d.FetchCycle})
	}
}

func (c *Core) traceSquash(d *DynInst) {
	if c.tracer != nil {
		c.emit(trace.Event{Kind: trace.Squash, Seq: d.Seq, PC: d.PC})
	}
}

func (c *Core) traceRunaheadEnter(pc uint64, mode string, chainLen int) {
	if c.flight != nil {
		c.flight.Record(&trace.Event{Cycle: c.now, Kind: trace.RunaheadEnter, PC: pc, Mode: mode, ChainLen: chainLen})
	}
	if c.tracer != nil {
		c.emit(trace.Event{Kind: trace.RunaheadEnter, PC: pc, Mode: mode, ChainLen: chainLen})
	}
}

func (c *Core) traceRunaheadExit(misses uint64) {
	if c.flight != nil {
		c.flight.Record(&trace.Event{Cycle: c.now, Kind: trace.RunaheadExit, Misses: misses})
	}
	if c.tracer != nil {
		c.emit(trace.Event{Kind: trace.RunaheadExit, Misses: misses})
	}
}

// traceSample emits the periodic occupancy snapshot feeding counter tracks.
// Called from Cycle every sampleInterval cycles while a tracer is attached.
func (c *Core) traceSample() {
	if c.tracer != nil {
		c.emit(trace.Event{Kind: trace.Sample, ROBOcc: c.rob.size(), MSHROcc: c.h.OutstandingDataMissesR(c.memReq)})
	}
}

package trace_test

import (
	"bytes"
	"testing"

	"runaheadsim/internal/core"
	"runaheadsim/internal/trace"
	"runaheadsim/internal/workload"
)

// ringTee feeds the kinds a flight ring records to a ring and, one line
// each, to the JSONL encoder, and checks at every wrap that the ring's dump
// equals the encoder's last lines. seen counts the kinds and flag values
// the events covered.
type ringTee struct {
	t     *testing.T
	ring  *trace.Ring
	cap   int
	lines [][]byte
	seen  map[string]int
}

func (s *ringTee) Emit(ev *trace.Event) {
	switch ev.Kind {
	case trace.Sample, trace.RunaheadEnter, trace.RunaheadExit, trace.CacheMiss, trace.DRAMAccess, trace.Mark:
	default:
		return
	}
	s.ring.Record(ev)
	var b bytes.Buffer
	js := trace.NewJSONLSink(&b)
	js.Emit(ev)
	js.Close()
	s.lines = append(s.lines, b.Bytes())
	s.seen[ev.Kind.String()]++
	switch {
	case ev.Kind == trace.RunaheadEnter:
		s.seen[ev.Mode]++
	case ev.Instr:
		s.seen["instr"]++
	case ev.Write:
		s.seen["write"]++
	case ev.RowHit:
		s.seen["rowHit"]++
	}
	if len(s.lines)%s.cap == 0 {
		s.check()
	}
}

func (s *ringTee) Close() error { return nil }

// check compares the ring's dump with the encoder's last lines.
func (s *ringTee) check() {
	s.t.Helper()
	var got bytes.Buffer
	if err := s.ring.WriteJSONL(&got); err != nil {
		s.t.Fatal(err)
	}
	want := bytes.Join(s.lines[max(0, len(s.lines)-s.cap):], nil)
	if !bytes.Equal(got.Bytes(), want) {
		s.t.Fatalf("after %d events the ring dump differs from the JSONL sink's last lines:\n got %.400s\nwant %.400s", len(s.lines), got.Bytes(), want)
	}
}

// TestRingAsSink records a Hybrid run's memory-hook, runahead and sample
// events, wrap after wrap, into a ring and through the JSONL sink: at every
// wrap, and after a closing mark, the ring's dump must equal the sink's
// last lines byte for byte. libquantum streams through a 64 KB LLC, so its
// DRAM traffic holds row hits and writebacks as well as reads.
func TestRingAsSink(t *testing.T) {
	const capacity = 96
	cfg := core.DefaultConfig()
	cfg.Mode = core.ModeHybrid
	cfg.Mem.LLC.SizeBytes = 64 << 10
	c := core.New(cfg, workload.MustLoad("libquantum"))
	tee := &ringTee{t: t, ring: trace.NewRing(capacity), cap: capacity, seen: map[string]int{}}
	c.SetEventSink(tee, 0)
	c.Run(100_000)
	if err := c.CloseEventSink(); err != nil {
		t.Fatal(err)
	}
	tee.Emit(&trace.Event{Cycle: c.Now(), Kind: trace.Mark, Op: "core: watchdog — \"mcf\" wedged"})
	tee.check()
	for _, k := range []string{"sample", "runahead-enter", "runahead-exit", "llc-miss", "dram", "mark",
		trace.ModeBuffer, trace.ModeTraditional, "instr", "write", "rowHit"} {
		if tee.seen[k] == 0 {
			t.Fatalf("the run recorded no %s event: %v", k, tee.seen)
		}
	}
}

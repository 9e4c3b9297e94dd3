package core

import (
	"bytes"
	"encoding/binary"
	"testing"

	"runaheadsim/internal/allocmeter"
	"runaheadsim/internal/prog"
	"runaheadsim/internal/snapshot"
	"runaheadsim/internal/workload"
)

// restoreSeed drains milc under RB+CC with the stream prefetcher on, so the
// snapshot carries a chain cache, prefetch history and every other section,
// and returns the configuration, program and snapshot payload. Caches and
// predictor tables are shrunk so the payload stays near 14 KB.
func restoreSeed(tb testing.TB) (Config, *prog.Program, []byte) {
	tb.Helper()
	cfg := DefaultConfig()
	cfg.Mode = ModeBufferCC
	cfg.Mem.EnablePrefetch = true
	cfg.Mem.L1I.SizeBytes, cfg.Mem.L1D.SizeBytes, cfg.Mem.LLC.SizeBytes = 1<<10, 1<<10, 4<<10
	bp := &cfg.BPred
	bp.BimodalEntries, bp.GshareEntries, bp.ChooserEntries, bp.HistoryBits, bp.BTBEntries = 256, 256, 256, 8, 64
	p := workload.MustLoad("milc")
	c := New(cfg, p)
	c.Run(2_000)
	if err := c.Drain(); err != nil {
		tb.Fatalf("Drain: %v", err)
	}
	data, err := c.Snapshot()
	if err != nil {
		tb.Fatalf("Snapshot: %v", err)
	}
	payload, err := snapshot.Decode(data, MachineKind)
	if err != nil {
		tb.Fatal(err)
	}
	return cfg, p, payload
}

// markEnd returns the offset just past section mark name in payload.
func markEnd(tb testing.TB, payload []byte, name string) int {
	tb.Helper()
	w := &snapshot.Writer{}
	w.Mark(name)
	i := bytes.Index(payload, w.Bytes())
	if i < 0 {
		tb.Fatalf("payload has no %q section", name)
	}
	return i + len(w.Bytes())
}

// withInt returns a copy of payload whose 8-byte int at off reads n.
func withInt(payload []byte, off int, n int64) []byte {
	out := append([]byte(nil), payload...)
	binary.LittleEndian.PutUint64(out[off:], uint64(n))
	return out
}

// hostileValue is a valid snapshot with one count or index rewritten.
type hostileValue struct {
	name    string
	payload []byte
}

// hostileValues rewrites, one at a time, each count that sizes a table on
// restore and each index the restored machine reads a table at. The offsets
// follow the wire layout of each section.
func hostileValues(tb testing.TB, payload []byte) []hostileValue {
	le := func(off int) int { return int(binary.LittleEndian.Uint64(payload[off:])) }
	// ccache: stamp, hits, misses, entry count; then the first entry's
	// valid byte, pc, lastUse, blocking PC and signature before its length.
	chainLen := markEnd(tb, payload, "ccache") + 4*8 + 1 + 4*8
	missAge := markEnd(tb, payload, "missage")
	pcScore := markEnd(tb, payload, "pcscore")
	// pf-stream: stream count, level, then 33 bytes per stream.
	pf := markEnd(tb, payload, "pf-stream")
	history := pf + 2*8 + le(pf)*33
	// dram: channels, banks; 17 bytes per bank, bus and refresh clocks per
	// channel, seven counters, then the requestor count.
	d := markEnd(tb, payload, "dram")
	ch, banks := le(d), le(d+8)
	requestors := d + 2*8 + ch*banks*17 + 2*ch*8 + 7*8
	// memsys: clock, sequence, requestor count, then the arbiter pointer.
	arbNext := markEnd(tb, payload, "memsys") + 3*8
	// bpred: six geometry ints, three length-prefixed byte tables, the
	// global history, 17 bytes per BTB entry and the RAS entries.
	bp := markEnd(tb, payload, "bpred")
	rasTop := bp + 6*8 + 3*8 + le(bp) + le(bp+8) + le(bp+16) + 8 + le(bp+32)*17 + le(bp+40)*8
	return []hostileValue{
		{"negative-chain-length", withInt(payload, chainLen, -1)},
		{"huge-chain-length", withInt(payload, chainLen, 1<<40)},
		{"huge-missage", withInt(payload, missAge, 1<<40)},
		{"negative-missage", withInt(payload, missAge, -1)},
		{"huge-pcscore", withInt(payload, pcScore, 1<<40)},
		{"huge-prefetch-history", withInt(payload, history, 1<<40)},
		{"long-prefetch-history", withInt(payload, history, 17)}, // holds 16
		{"huge-dram-requestors", withInt(payload, requestors, 1<<40)},
		{"negative-dram-requestors", withInt(payload, requestors, -1)},
		{"arbiter-past-requestors", withInt(payload, arbNext, 1)},
		{"negative-arbiter", withInt(payload, arbNext, -1)},
		{"ras-top-past-entries", withInt(payload, rasTop, int64(le(bp+40)))},
		{"ras-depth-past-entries", withInt(payload, rasTop+8, int64(le(bp+40))+1)},
	}
}

// restoreAlloc restores payload (sealed in a machine container) into a
// fresh core and returns the core, the error and the bytes allocated.
func restoreAlloc(cfg Config, p *prog.Program, payload []byte) (c *Core, err error, alloc uint64) {
	data := snapshot.Encode(MachineKind, payload)
	alloc = allocmeter.Bytes(func() { c, err = RestoreCore(data, cfg, p) })
	return c, err, alloc
}

// restoreAllocBound is what a restore of payload may allocate: what a fresh
// core costs, a few times the payload for tables and copies, and slack far
// below what sizing a table by a hostile count would take.
func restoreAllocBound(newCost uint64, payload []byte) uint64 {
	return newCost + 8*uint64(len(payload)) + 1<<20
}

// newCoreAlloc measures the bytes New allocates for cfg and p.
func newCoreAlloc(cfg Config, p *prog.Program) uint64 {
	return allocmeter.Bytes(func() { New(cfg, p) })
}

// TestRestoreCoreHostileCounts rewrites each count a machine restore sizes
// a table by, in an otherwise valid snapshot, to a value the payload cannot
// back, and each restored table index to one outside its table: every one
// must fail with an error, promptly and without allocating by the claimed
// count.
func TestRestoreCoreHostileCounts(t *testing.T) {
	cfg, p, payload := restoreSeed(t)
	newCost := newCoreAlloc(cfg, p)
	for _, h := range hostileValues(t, payload) {
		_, err, alloc := restoreAlloc(cfg, p, h.payload)
		if err == nil {
			t.Errorf("%s: restored without error", h.name)
		}
		if alloc > restoreAllocBound(newCost, h.payload) {
			t.Errorf("%s: a %d-byte payload allocated %d bytes", h.name, len(h.payload), alloc)
		}
	}
}

// FuzzRestoreCore: arbitrary payloads, sealed in a valid container so they
// reach the machine decoder, restore with an error or into a core that
// re-snapshots stably, never with a panic, a hang or an allocation the
// payload cannot account for. The valid seed restores and re-snapshots to
// its own bytes.
func FuzzRestoreCore(f *testing.F) {
	cfg, p, valid := restoreSeed(f)
	newCost := newCoreAlloc(cfg, p)
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	for _, h := range hostileValues(f, valid) {
		f.Add(h.payload)
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		c, err, alloc := restoreAlloc(cfg, p, payload)
		if alloc > restoreAllocBound(newCost, payload) {
			t.Fatalf("a %d-byte payload allocated %d bytes", len(payload), alloc)
		}
		if bytes.Equal(payload, valid) && err != nil {
			t.Fatalf("valid snapshot does not restore: %v", err)
		}
		if err != nil {
			return
		}
		enc, err := c.Snapshot()
		if err != nil {
			t.Fatalf("restored core does not re-snapshot: %v", err)
		}
		if bytes.Equal(payload, valid) && !bytes.Equal(enc, snapshot.Encode(MachineKind, valid)) {
			t.Fatal("valid snapshot re-snapshots to different bytes")
		}
		again, err := RestoreCore(enc, cfg, p)
		if err != nil {
			t.Fatalf("re-snapshot does not restore: %v", err)
		}
		if enc2, err := again.Snapshot(); err != nil || !bytes.Equal(enc2, enc) {
			t.Fatalf("re-snapshot is not stable (err %v)", err)
		}
	})
}

package memsys

import (
	"bytes"
	"testing"

	"runaheadsim/internal/cache"
	"runaheadsim/internal/snapshot"
)

// tagBytes serializes c's tag state — tags, valid, dirty and prefetch bits,
// LRU stamps — without its statistics.
func tagBytes(t *testing.T, c *cache.Cache) []byte {
	t.Helper()
	cp := cache.New(c.Config())
	cp.CopyFrom(c)
	var w snapshot.Writer
	if err := cp.SnapshotTo(&w); err != nil {
		t.Fatal(err)
	}
	return w.Bytes()
}

// TestFunctionalMatchesHierarchy pins the functional tag walk to the timed
// hierarchy: the same serialized stream of loads, stores and fetches — each
// drained before the next issues — leaves identical L1I, L1D and LLC tag
// arrays, dirty bits included. The geometry is shrunk and the
// footprint is four times the LLC, so LLC evictions, inclusion
// invalidations of L1 copies and dirty write-backs all happen. Install then
// reproduces the arrays in a fresh hierarchy.
func TestFunctionalMatchesHierarchy(t *testing.T) {
	cfg := DefaultConfig()
	cfg.L1I = cache.Config{Name: "L1I", SizeBytes: 2 << 10, Ways: 2, LineBytes: 64}
	cfg.L1D = cache.Config{Name: "L1D", SizeBytes: 4 << 10, Ways: 4, LineBytes: 64}
	cfg.LLC = cache.Config{Name: "LLC", SizeBytes: 32 << 10, Ways: 4, LineBytes: 64}
	const footprint = 4 * (32 << 10)

	h := New(cfg)
	tags := NewTags(cfg)
	var now int64
	x := uint64(0x9e3779b97f4a7c15)
	for i := 0; i < 20_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		// Half the accesses go to a 4KB hot region, so every level hits as
		// well as misses.
		addr := x % footprint
		if x>>60 < 8 {
			addr %= 4 << 10
		}
		var got *Outcome
		cb := func(o Outcome) { got = &o }
		var want Level
		switch x >> 58 % 3 {
		case 0:
			load(h, now, addr, false, nil, cb)
			want = tags.Load(addr)
		case 1:
			store(h, now, addr, cb)
			want = tags.Store(addr)
		default:
			fetch(h, now, addr, cb)
			want = tags.Fetch(addr)
		}
		drive(t, h, &now, 10_000, func() bool { return got != nil && h.Drained() })
		if got.Level != want {
			t.Fatalf("access %d (%#x): hierarchy served it from %v, functional walk from %v", i, addr, got.Level, want)
		}
	}
	if h.LLC().Evictions == 0 || h.DRAMWrites == 0 {
		t.Fatalf("stream too small: %d LLC evictions, %d DRAM writes", h.LLC().Evictions, h.DRAMWrites)
	}
	t.Logf("L1D %d hits/%d misses, L1I %d misses, LLC %d hits/%d misses/%d evictions, %d DRAM writes",
		h.L1D().Hits, h.L1D().Misses, h.L1I().Misses, h.LLC().Hits, h.LLC().Misses, h.LLC().Evictions, h.DRAMWrites)
	fresh := New(cfg)
	tags.Install(fresh)
	for _, c := range []struct {
		name            string
		timed, fn, inst *cache.Cache
	}{
		{"L1I", h.L1I(), tags.L1I, fresh.L1I()},
		{"L1D", h.L1D(), tags.L1D, fresh.L1D()},
		{"LLC", h.LLC(), tags.LLC, fresh.LLC()},
	} {
		want := tagBytes(t, c.timed)
		if !bytes.Equal(tagBytes(t, c.fn), want) {
			t.Errorf("%s: functional walk's tag array differs from the hierarchy's", c.name)
		}
		if !bytes.Equal(tagBytes(t, c.inst), want) {
			t.Errorf("%s: installed tag array differs from the hierarchy's", c.name)
		}
	}
}

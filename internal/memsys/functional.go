package memsys

import "runaheadsim/internal/cache"

// Tags is the functional model of a single-requestor hierarchy: its L1I,
// L1D and LLC tag arrays with no timing, MSHRs, DRAM or prefetcher. Load,
// Store and Fetch apply the tag effects of one completed demand access — the
// same cache calls, in the same order, that Hierarchy makes for that access
// when nothing else is in flight — so an interpreter can walk it at
// functional speed to warm the caches (the sampled engine's fast-forward).
// Install copies the warmed arrays into a timed hierarchy.
type Tags struct {
	L1I, L1D, LLC *cache.Cache
}

// NewTags returns empty tag arrays sized by cfg.
func NewTags(cfg Config) *Tags {
	return &Tags{L1I: cache.New(cfg.L1I), L1D: cache.New(cfg.L1D), LLC: cache.New(cfg.LLC)}
}

// Load applies a demand read of addr and returns the level that served it.
func (t *Tags) Load(addr uint64) Level {
	line := t.L1D.LineAddr(addr)
	if hit, _ := t.L1D.Lookup(line); hit {
		return LevelL1
	}
	lvl := t.llcAccess(line)
	if v := t.L1D.Insert(line, false); v.Valid && v.Dirty {
		t.LLC.MarkDirty(v.Addr)
	}
	return lvl
}

// Store applies a demand write of addr (write-allocate, write-back) and
// returns the level that served it.
func (t *Tags) Store(addr uint64) Level {
	lvl := t.Load(addr)
	t.L1D.MarkDirty(addr)
	return lvl
}

// Fetch applies an instruction read of addr and returns the level that
// served it.
func (t *Tags) Fetch(addr uint64) Level {
	line := t.L1I.LineAddr(addr)
	if hit, _ := t.L1I.Lookup(line); hit {
		return LevelL1
	}
	lvl := t.llcAccess(line)
	t.L1I.Insert(line, false)
	return lvl
}

// llcAccess looks an L1 miss up in the LLC and, on a miss, fills the line
// from memory, dropping the victim's L1 copies (inclusion).
func (t *Tags) llcAccess(line uint64) Level {
	if hit, _ := t.LLC.Lookup(line); hit {
		return LevelLLC
	}
	if v := t.LLC.Insert(line, false); v.Valid {
		t.L1D.Invalidate(v.Addr)
		t.L1I.Invalidate(v.Addr)
	}
	return LevelMem
}

// Clone returns an independent copy of t's tag arrays.
func (t *Tags) Clone() *Tags {
	c := &Tags{L1I: cache.New(t.L1I.Config()), L1D: cache.New(t.L1D.Config()), LLC: cache.New(t.LLC.Config())}
	c.L1I.CopyFrom(t.L1I)
	c.L1D.CopyFrom(t.L1D)
	c.LLC.CopyFrom(t.LLC)
	return c
}

// Install copies t's tag arrays into h's L1I, L1D and LLC, leaving h's
// statistics, MSHRs, DRAM controller and prefetcher alone. h must be an idle
// single-requestor hierarchy of the same geometry.
func (t *Tags) Install(h *Hierarchy) {
	if len(h.fr) != 1 || !h.Drained() {
		panic("memsys: functional tags install into an idle single-requestor hierarchy only")
	}
	h.fr[0].l1i.CopyFrom(t.L1I)
	h.fr[0].l1d.CopyFrom(t.L1D)
	h.llc.CopyFrom(t.LLC)
}

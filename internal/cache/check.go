package cache

import "fmt"

// This file holds the structural self-checks the simcheck sanitizer runs.
// They are ordinary methods (no build tag) so tests can call them directly;
// the per-cycle wiring lives in internal/simcheck.

// lifetime counters for conservation checking. Unlike the public statistics
// (which harnesses zero after warmup), these are never reset while entries
// are outstanding, so allocate/complete conservation holds for the whole
// life of the file.

// CheckConservation verifies MSHR allocate/free conservation: occupancy never
// exceeds capacity, and every allocation is either completed or still
// outstanding. A mismatch means an entry leaked or was double-completed.
func (f *MSHRFile) CheckConservation() error {
	if len(f.entries) > f.cap {
		return fmt.Errorf("mshr: %d entries outstanding, capacity %d", len(f.entries), f.cap)
	}
	if f.allocTotal != f.completeTotal+uint64(len(f.entries)) {
		return fmt.Errorf("mshr: conservation broken: %d allocated != %d completed + %d outstanding",
			f.allocTotal, f.completeTotal, len(f.entries))
	}
	for i, m := range f.entries {
		line := f.lines[i]
		if m == nil {
			return fmt.Errorf("mshr: nil entry for line %#x", line)
		}
		if m.LineAddr != line {
			return fmt.Errorf("mshr: entry keyed %#x records line %#x", line, m.LineAddr)
		}
	}
	return nil
}

// CheckIntegrity verifies the LRU stack of every set: valid lines have
// distinct tags, and every recency stamp is unique within its set and no
// newer than the cache's global stamp. A violation means replacement state
// was corrupted (two lines claiming the same recency, or a stale refill
// resurrecting an evicted line).
func (c *Cache) CheckIntegrity() error {
	for si := 0; si < c.cfg.Sets(); si++ {
		set := c.ways[si*c.cfg.Ways : (si+1)*c.cfg.Ways]
		for i := range set {
			if !set[i].valid() {
				continue
			}
			if set[i].lastUse > c.stamp {
				return fmt.Errorf("cache %s: set %d way %d stamp %d exceeds global stamp %d",
					c.cfg.Name, si, i, set[i].lastUse, c.stamp)
			}
			for j := i + 1; j < len(set); j++ {
				if !set[j].valid() {
					continue
				}
				if set[i].tag() == set[j].tag() {
					return fmt.Errorf("cache %s: set %d holds tag %#x in ways %d and %d",
						c.cfg.Name, si, set[i].tag(), i, j)
				}
				if set[i].lastUse == set[j].lastUse {
					return fmt.Errorf("cache %s: set %d ways %d and %d share LRU stamp %d",
						c.cfg.Name, si, i, j, set[i].lastUse)
				}
			}
		}
	}
	return nil
}

// ForEachValid calls fn with the line address of every valid line, in
// set/way order. Used by the inclusive-LLC containment check.
func (c *Cache) ForEachValid(fn func(lineAddr uint64)) {
	for i := range c.ways {
		if w := &c.ways[i]; w.valid() {
			fn(w.tag() << c.lineShift)
		}
	}
}

// Package cache provides the structural cache model: set-associative tag
// arrays with true-LRU replacement, dirty and prefetch bits, and miss status
// holding registers (MSHRs). Timing and the miss path live in
// internal/memsys; this package answers only "is the line here, and what got
// evicted".
//
// A tag array is one flat slice of 16-byte ways, set-major and way-minor:
// set s occupies ways[s*Ways : (s+1)*Ways]. Each way packs the line's tag
// (the address shifted right by the line offset) with its valid, dirty and
// prefetch bits in the top three bits of one word, beside its LRU stamp.
// Config validation keeps every tag below those bits (lines of at least 8
// bytes), so the packing is lossless and a snapshot reads and writes each
// field as before.
package cache

import "fmt"

// Config describes one cache array.
type Config struct {
	Name      string
	SizeBytes int
	Ways      int
	LineBytes int
}

// Sets returns the number of sets implied by the geometry.
func (c Config) Sets() int { return c.SizeBytes / (c.Ways * c.LineBytes) }

func (c Config) validate() error {
	if c.SizeBytes <= 0 || c.Ways <= 0 || c.LineBytes <= 0 {
		return fmt.Errorf("cache %q: non-positive geometry", c.Name)
	}
	if c.SizeBytes%(c.Ways*c.LineBytes) != 0 {
		return fmt.Errorf("cache %q: size %d not divisible by ways*line", c.Name, c.SizeBytes)
	}
	s := c.Sets()
	if s&(s-1) != 0 {
		return fmt.Errorf("cache %q: set count %d not a power of two", c.Name, s)
	}
	if c.LineBytes&(c.LineBytes-1) != 0 {
		return fmt.Errorf("cache %q: line size %d not a power of two", c.Name, c.LineBytes)
	}
	if c.LineBytes < minLineBytes {
		return fmt.Errorf("cache %q: line size %d below %d bytes leaves tags no room for the way's flag bits", c.Name, c.LineBytes, minLineBytes)
	}
	return nil
}

// A way's tag word: the tag in the low bits, the flags in the top three.
const (
	wayValid    uint64 = 1 << 63
	wayDirty    uint64 = 1 << 62
	wayPrefetch uint64 = 1 << 61 // filled by a prefetch and not yet demanded (for FDP accuracy)
	tagMask            = wayPrefetch - 1
	// minLineBytes is the smallest line whose tags (addr >> log2(line))
	// stay within tagMask.
	minLineBytes = 8
)

// way is one line of the tag array.
type way struct {
	tagFlags uint64
	lastUse  uint64
}

func (w *way) valid() bool { return w.tagFlags&wayValid != 0 }
func (w *way) tag() uint64 { return w.tagFlags & tagMask }

// holds reports whether w is a valid line with key's tag, key being
// tag|wayValid; the dirty and prefetch bits do not take part.
func (w *way) holds(key uint64) bool { return w.tagFlags&^(wayDirty|wayPrefetch) == key }

// Cache is a set-associative tag array.
type Cache struct {
	cfg       Config
	ways      []way  // set-major, cfg.Ways per set
	lineShift uint   //simlint:nosnapshot derived from cfg geometry by the constructor
	setMask   uint64 //simlint:nosnapshot derived from cfg geometry by the constructor
	stamp     uint64

	// Statistics.
	Hits      uint64
	Misses    uint64
	Evictions uint64
}

// New builds an empty cache; it panics on invalid geometry (a configuration
// bug, not a runtime condition).
func New(cfg Config) *Cache {
	if err := cfg.validate(); err != nil {
		panic(err)
	}
	nsets := cfg.Sets()
	c := &Cache{cfg: cfg, ways: make([]way, nsets*cfg.Ways)}
	for shift := uint(0); ; shift++ {
		if 1<<shift == cfg.LineBytes {
			c.lineShift = shift
			break
		}
	}
	c.setMask = uint64(nsets - 1)
	return c
}

// Config returns the cache geometry.
func (c *Cache) Config() Config { return c.cfg }

// LineAddr returns the line-aligned address containing addr.
func (c *Cache) LineAddr(addr uint64) uint64 { return addr &^ uint64(c.cfg.LineBytes-1) }

func (c *Cache) setOf(addr uint64) []way {
	base := int((addr>>c.lineShift)&c.setMask) * c.cfg.Ways
	return c.ways[base : base+c.cfg.Ways]
}

// keyOf returns the tag word a valid, clean, demanded line of addr holds.
func (c *Cache) keyOf(addr uint64) uint64 { return addr>>c.lineShift | wayValid }

// Lookup checks for addr, updating LRU and hit/miss statistics. When the hit
// line was prefetched and not yet referenced, wasPrefetch is true and the bit
// is cleared (first demand use of a prefetched line).
func (c *Cache) Lookup(addr uint64) (hit, wasPrefetch bool) {
	set, key := c.setOf(addr), c.keyOf(addr)
	for i := range set {
		w := &set[i]
		if w.holds(key) {
			c.stamp++
			w.lastUse = c.stamp
			wp := w.tagFlags&wayPrefetch != 0
			w.tagFlags &^= wayPrefetch
			c.Hits++
			return true, wp
		}
	}
	c.Misses++
	return false, false
}

// Probe checks for addr without disturbing LRU, statistics or prefetch bits.
func (c *Cache) Probe(addr uint64) bool {
	set, key := c.setOf(addr), c.keyOf(addr)
	for i := range set {
		if set[i].holds(key) {
			return true
		}
	}
	return false
}

// Victim describes a line displaced by Insert.
type Victim struct {
	Addr  uint64
	Dirty bool
	Valid bool
}

// Insert fills addr, evicting the LRU line of the set if needed. The evicted
// line (if any) is returned so the caller can write it back or invalidate
// upper levels (inclusion).
func (c *Cache) Insert(addr uint64, prefetched bool) Victim {
	set, key := c.setOf(addr), c.keyOf(addr)
	// Refill of a present line (e.g. racing fills) just refreshes it.
	for i := range set {
		if set[i].holds(key) {
			c.stamp++
			set[i].lastUse = c.stamp
			return Victim{}
		}
	}
	vi := 0
	for i := range set {
		if !set[i].valid() {
			vi = i
			break
		}
		if set[i].lastUse < set[vi].lastUse {
			vi = i
		}
	}
	var v Victim
	if set[vi].valid() {
		v = Victim{Addr: set[vi].tag() << c.lineShift, Dirty: set[vi].tagFlags&wayDirty != 0, Valid: true}
		c.Evictions++
	}
	if prefetched {
		key |= wayPrefetch
	}
	c.stamp++
	set[vi] = way{tagFlags: key, lastUse: c.stamp}
	return v
}

// MarkDirty sets the dirty bit of the line containing addr (store hit or
// store fill). It reports whether the line was present.
func (c *Cache) MarkDirty(addr uint64) bool {
	set, key := c.setOf(addr), c.keyOf(addr)
	for i := range set {
		if set[i].holds(key) {
			set[i].tagFlags |= wayDirty
			return true
		}
	}
	return false
}

// Invalidate drops the line containing addr, returning whether it was present
// and dirty (the caller may need to write it back).
func (c *Cache) Invalidate(addr uint64) (present, dirty bool) {
	set, key := c.setOf(addr), c.keyOf(addr)
	for i := range set {
		if set[i].holds(key) {
			d := set[i].tagFlags&wayDirty != 0
			set[i] = way{}
			return true, d
		}
	}
	return false, false
}

// PrefetchResident reports whether the line containing addr is present and
// still carries its prefetch bit (prefetched, never demanded). Used by FDP's
// pollution/accuracy accounting.
func (c *Cache) PrefetchResident(addr uint64) bool {
	set, key := c.setOf(addr), c.keyOf(addr)
	for i := range set {
		if set[i].holds(key) {
			return set[i].tagFlags&wayPrefetch != 0
		}
	}
	return false
}

// CopyFrom overwrites c's tag array with src's — tags, valid, dirty and
// prefetch bits, and LRU stamps — leaving c's statistics alone. It is how a
// functionally warmed array is installed into a timed hierarchy; the two
// must share a geometry.
func (c *Cache) CopyFrom(src *Cache) {
	if src.cfg.SizeBytes != c.cfg.SizeBytes || src.cfg.Ways != c.cfg.Ways || src.cfg.LineBytes != c.cfg.LineBytes {
		panic(fmt.Sprintf("cache: copying %q geometry into %q", src.cfg.Name, c.cfg.Name))
	}
	copy(c.ways, src.ways)
	c.stamp = src.stamp
}

// Package cache provides the structural cache model: set-associative tag
// arrays with true-LRU replacement, dirty and prefetch bits, and miss status
// holding registers (MSHRs). Timing and the miss path live in
// internal/memsys; this package answers only "is the line here, and what got
// evicted".
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
	return nil
}

type line struct {
	tag        uint64
	valid      bool
	dirty      bool
	prefetched bool // filled by a prefetch and not yet demanded (for FDP accuracy)
	lastUse    uint64
}

// Cache is a set-associative tag array.
type Cache struct {
	cfg       Config
	sets      [][]line
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
	c := &Cache{cfg: cfg}
	nsets := cfg.Sets()
	c.sets = make([][]line, nsets)
	backing := make([]line, nsets*cfg.Ways)
	for i := range c.sets {
		c.sets[i] = backing[i*cfg.Ways : (i+1)*cfg.Ways]
	}
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

func (c *Cache) setOf(addr uint64) []line { return c.sets[(addr>>c.lineShift)&c.setMask] }

func (c *Cache) tagOf(addr uint64) uint64 { return addr >> c.lineShift }

// Lookup checks for addr, updating LRU and hit/miss statistics. When the hit
// line was prefetched and not yet referenced, wasPrefetch is true and the bit
// is cleared (first demand use of a prefetched line).
func (c *Cache) Lookup(addr uint64) (hit, wasPrefetch bool) {
	set := c.setOf(addr)
	tag := c.tagOf(addr)
	for i := range set {
		l := &set[i]
		if l.valid && l.tag == tag {
			c.stamp++
			l.lastUse = c.stamp
			wp := l.prefetched
			l.prefetched = false
			c.Hits++
			return true, wp
		}
	}
	c.Misses++
	return false, false
}

// Probe checks for addr without disturbing LRU, statistics or prefetch bits.
func (c *Cache) Probe(addr uint64) bool {
	set := c.setOf(addr)
	tag := c.tagOf(addr)
	for i := range set {
		if set[i].valid && set[i].tag == tag {
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
	set := c.setOf(addr)
	tag := c.tagOf(addr)
	// Refill of a present line (e.g. racing fills) just refreshes it.
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			c.stamp++
			set[i].lastUse = c.stamp
			return Victim{}
		}
	}
	vi := 0
	for i := range set {
		if !set[i].valid {
			vi = i
			break
		}
		if set[i].lastUse < set[vi].lastUse {
			vi = i
		}
	}
	var v Victim
	if set[vi].valid {
		v = Victim{Addr: set[vi].tag << c.lineShift, Dirty: set[vi].dirty, Valid: true}
		c.Evictions++
	}
	c.stamp++
	set[vi] = line{tag: tag, valid: true, prefetched: prefetched, lastUse: c.stamp}
	return v
}

// MarkDirty sets the dirty bit of the line containing addr (store hit or
// store fill). It reports whether the line was present.
func (c *Cache) MarkDirty(addr uint64) bool {
	set := c.setOf(addr)
	tag := c.tagOf(addr)
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			set[i].dirty = true
			return true
		}
	}
	return false
}

// Invalidate drops the line containing addr, returning whether it was present
// and dirty (the caller may need to write it back).
func (c *Cache) Invalidate(addr uint64) (present, dirty bool) {
	set := c.setOf(addr)
	tag := c.tagOf(addr)
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			d := set[i].dirty
			set[i] = line{}
			return true, d
		}
	}
	return false, false
}

// PrefetchResident reports whether the line containing addr is present and
// still carries its prefetch bit (prefetched, never demanded). Used by FDP's
// pollution/accuracy accounting.
func (c *Cache) PrefetchResident(addr uint64) bool {
	set := c.setOf(addr)
	tag := c.tagOf(addr)
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			return set[i].prefetched
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
	for i := range c.sets {
		copy(c.sets[i], src.sets[i])
	}
	c.stamp = src.stamp
}

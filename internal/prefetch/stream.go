// Package prefetch implements the stream prefetcher of Table 1: 32 streams,
// prefetch distance 32, degree 2, prefetching into the last-level cache,
// modeled on the IBM POWER4 prefetch engine, with Feedback-Directed
// Prefetching (FDP) throttling that adjusts aggressiveness from measured
// accuracy, lateness and pollution.
package prefetch

// Config sizes the prefetcher.
type Config struct {
	Streams  int
	Distance int // how far ahead of the demand stream to run (lines)
	Degree   int // prefetches issued per triggering access
	// LineBytes is the cache line size prefetch addresses are aligned to.
	LineBytes int
	// FDP enables feedback throttling; when false the prefetcher stays at the
	// configured Distance/Degree.
	FDP bool
	// IntervalAccesses is the FDP evaluation interval in triggering demand
	// accesses.
	IntervalAccesses uint64
}

// DefaultConfig matches Table 1.
func DefaultConfig() Config {
	return Config{
		Streams:          32,
		Distance:         32,
		Degree:           2,
		LineBytes:        64,
		FDP:              true,
		IntervalAccesses: 8192,
	}
}

// aggressiveness levels per the FDP paper (distance, degree). Table 1's
// static configuration (32, 2) is level 4.
var levels = [...]struct{ distance, degree int }{
	{4, 1}, {8, 1}, {16, 1}, {16, 2}, {32, 2}, {64, 4},
}

const defaultLevel = 4

type stream struct {
	valid   bool
	dir     int64  // +1 or -1
	last    uint64 // last demand line number seen in the stream
	next    uint64 // next line number to prefetch
	lastUse uint64
}

// Prefetcher is the stream engine. It operates on line numbers internally
// and returns full line addresses from Train.
type Prefetcher struct {
	cfg     Config
	level   int
	streams []stream
	history []uint64 // recent demand-miss line numbers for allocation
	stamp   uint64

	// Pollution filter: a Bloom-style bit array of lines evicted by prefetch
	// fills; a demand miss that hits the filter counts as pollution.
	filter [4096]bool

	// Interval counters for FDP.
	accesses   uint64
	issuedIvl  uint64
	usefulIvl  uint64
	lateIvl    uint64
	pollutIvl  uint64
	demMissIvl uint64

	// Cumulative statistics.
	Issued    uint64
	Useful    uint64
	Late      uint64
	Pollution uint64
	LevelUps  uint64
	LevelDns  uint64
}

// New returns an idle prefetcher.
func New(cfg Config) *Prefetcher {
	if cfg.Streams <= 0 || cfg.LineBytes <= 0 {
		panic("prefetch: invalid configuration")
	}
	p := &Prefetcher{cfg: cfg, level: defaultLevel, streams: make([]stream, cfg.Streams)}
	if !cfg.FDP {
		// Freeze at the static Table 1 setting.
		p.level = defaultLevel
	}
	if cfg.IntervalAccesses == 0 {
		p.cfg.IntervalAccesses = 8192
	}
	return p
}

func (p *Prefetcher) distance() int64 {
	if p.cfg.FDP {
		return int64(levels[p.level].distance)
	}
	return int64(p.cfg.Distance)
}

func (p *Prefetcher) degree() int {
	if p.cfg.FDP {
		return levels[p.level].degree
	}
	return p.cfg.Degree
}

// Level returns the current FDP aggressiveness level (for tests/stats).
func (p *Prefetcher) Level() int { return p.level }

// Train observes one LLC demand access and returns the line addresses to
// prefetch (possibly none). hit reports whether the access hit the LLC;
// wasPrefetchHit reports a first demand hit on a prefetched line (accuracy
// feedback, from the cache's prefetch bits).
func (p *Prefetcher) Train(addr uint64, hit, wasPrefetchHit bool) []uint64 {
	ln := addr / uint64(p.cfg.LineBytes)
	p.accesses++
	if wasPrefetchHit {
		p.Useful++
		p.usefulIvl++
	}
	if !hit {
		p.demMissIvl++
		if p.filter[p.filterIdx(ln)] {
			p.Pollution++
			p.pollutIvl++
			p.filter[p.filterIdx(ln)] = false
		}
	}

	var out []uint64
	if s := p.match(ln); s != nil {
		p.stamp++
		s.lastUse = p.stamp
		if (s.dir > 0 && ln > s.last) || (s.dir < 0 && ln < s.last) {
			s.last = ln
		}
		out = p.advance(s)
	} else if !hit {
		p.train(ln)
	}
	if p.cfg.FDP && p.accesses >= p.cfg.IntervalAccesses {
		p.adjust()
	}
	return out
}

// match finds the stream tracking line ln, i.e. one whose window
// [last, last+distance*dir] contains ln.
func (p *Prefetcher) match(ln uint64) *stream {
	for i := range p.streams {
		s := &p.streams[i]
		if !s.valid {
			continue
		}
		d := int64(ln) - int64(s.last)
		if s.dir > 0 && d >= 0 && d <= p.distance() {
			return s
		}
		if s.dir < 0 && d <= 0 && -d <= p.distance() {
			return s
		}
	}
	return nil
}

// historyLen is how many recent demand-miss lines train remembers.
const historyLen = 16

// train looks for two sequential misses to allocate a new stream.
func (p *Prefetcher) train(ln uint64) {
	for _, h := range p.history {
		var dir int64
		switch {
		case ln == h+1:
			dir = 1
		case ln == h-1:
			dir = -1
		default:
			continue
		}
		s := p.victimStream()
		p.stamp++
		*s = stream{valid: true, dir: dir, last: ln, next: ln + uint64(dir)*2, lastUse: p.stamp}
		p.removeHistory(h)
		return
	}
	p.history = append(p.history, ln)
	if len(p.history) > historyLen {
		p.history = p.history[1:]
	}
}

func (p *Prefetcher) removeHistory(h uint64) {
	for i, v := range p.history {
		if v == h {
			p.history = append(p.history[:i], p.history[i+1:]...)
			return
		}
	}
}

func (p *Prefetcher) victimStream() *stream {
	vi := 0
	for i := range p.streams {
		if !p.streams[i].valid {
			return &p.streams[i]
		}
		if p.streams[i].lastUse < p.streams[vi].lastUse {
			vi = i
		}
	}
	return &p.streams[vi]
}

// advance issues up to degree prefetches keeping next within distance of the
// demand point.
func (p *Prefetcher) advance(s *stream) []uint64 {
	var out []uint64
	limit := int64(s.last) + p.distance()*s.dir
	for n := 0; n < p.degree(); n++ {
		pos := int64(s.next)
		if s.dir > 0 && pos > limit {
			break
		}
		if s.dir < 0 && pos < limit {
			break
		}
		if pos < 0 {
			break
		}
		out = append(out, uint64(pos)*uint64(p.cfg.LineBytes))
		s.next = uint64(pos + s.dir)
		p.Issued++
		p.issuedIvl++
	}
	return out
}

func (p *Prefetcher) filterIdx(ln uint64) int {
	h := ln * 0x9e3779b97f4a7c15
	return int(h % uint64(len(p.filter)))
}

// NotePrefetchEviction records that a prefetch fill evicted victimAddr
// (pollution feedback).
func (p *Prefetcher) NotePrefetchEviction(victimAddr uint64) {
	ln := victimAddr / uint64(p.cfg.LineBytes)
	p.filter[p.filterIdx(ln)] = true
}

// NoteLatePrefetch records a demand access that merged into an in-flight
// prefetch (the prefetch was useful but late).
func (p *Prefetcher) NoteLatePrefetch() {
	p.Late++
	p.lateIvl++
	p.Useful++
	p.usefulIvl++
}

// adjust applies the FDP policy at an interval boundary: accurate and late →
// more aggressive; inaccurate or polluting → less; otherwise hold.
func (p *Prefetcher) adjust() {
	issued, useful := p.issuedIvl, p.usefulIvl
	late, poll, miss := p.lateIvl, p.pollutIvl, p.demMissIvl
	p.accesses, p.issuedIvl, p.usefulIvl, p.lateIvl, p.pollutIvl, p.demMissIvl = 0, 0, 0, 0, 0, 0
	if issued < 32 {
		return // not enough signal
	}
	acc := float64(useful) / float64(issued)
	lateFrac := 0.0
	if useful > 0 {
		lateFrac = float64(late) / float64(useful)
	}
	pollFrac := 0.0
	if miss > 0 {
		pollFrac = float64(poll) / float64(miss)
	}
	switch {
	case acc >= 0.75 && lateFrac >= 0.10 && pollFrac < 0.25:
		if p.level < len(levels)-1 {
			p.level++
			p.LevelUps++
		}
	case acc < 0.40 || pollFrac >= 0.25:
		if p.level > 0 {
			p.level--
			p.LevelDns++
		}
	}
}

// ResetStats zeroes the cumulative counters, preserving stream-tracking and
// throttling state.
func (p *Prefetcher) ResetStats() {
	p.Issued, p.Useful, p.Late, p.Pollution = 0, 0, 0, 0
	p.LevelUps, p.LevelDns = 0, 0
}

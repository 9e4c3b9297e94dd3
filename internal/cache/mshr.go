package cache

// Level is the deepest hierarchy level an access had to reach. It lives here
// (rather than in memsys, which re-exports it) beside Outcome and Token, the
// completion types MSHR entries carry.
type Level uint8

// Hierarchy levels.
const (
	LevelL1 Level = iota
	LevelLLC
	LevelMem
)

// String implements fmt.Stringer.
func (l Level) String() string {
	switch l {
	case LevelL1:
		return "L1"
	case LevelLLC:
		return "LLC"
	default:
		return "Mem"
	}
}

// Outcome reports the completion of an access. Line is the line address the
// access resolved to — requesters that complete several outstanding accesses
// through one handler (the core's I-fetch path) use it to tell which access
// finished.
type Outcome struct {
	When  int64
	Level Level
	Line  uint64
}

// TokenKind says what a completion token completes, and so where its owner
// delivers it.
type TokenKind uint8

// Token kinds. The zero kind is no completion at all: merging it only counts.
const (
	TokNone TokenKind = iota
	// TokLoad is a data load; its early-miss notice and its completion go to
	// the requestor.
	TokLoad
	// TokLoadEarly is a no-wait (runahead) load that allocated its MSHR: it
	// completes at miss discovery, or at the fill if the miss never reaches
	// DRAM, whichever comes first.
	TokLoadEarly
	// TokStore is a store: the owner dirties the filled line, then completes
	// it.
	TokStore
	// TokFetch is an instruction fetch.
	TokFetch
	// TokFillData and TokFillInstr are last-level waiters: the fill moves on
	// into requestor Req's L1 data or instruction cache.
	TokFillData
	TokFillInstr
)

// Token is one pending completion, held by value in MSHR waiter and
// early-miss lists and in the hierarchy's event queue. It is plain data —
// the owner dispatches on Kind — so a pending access allocates nothing and
// holds no pointer. Slot, Gen, Seq and NoWait belong to the requester and
// come back unchanged; the hierarchy stamps Kind and Req.
type Token struct {
	Addr   uint64 // byte address the access asked for
	Seq    uint64 // requester's sequence number
	Gen    uint64 // requester's slot generation
	Slot   int32  // requester's slot index
	Req    int32  // requestor (core) the completion is delivered to
	Kind   TokenKind
	NoWait bool // runahead load: completes at miss discovery, without data
}

// MSHRFile tracks outstanding misses for one cache level. Requests to a line
// that already has an entry merge into it instead of issuing a duplicate
// fill, which is also how runahead's extra loads to already-missing lines
// avoid generating redundant DRAM traffic.
type MSHRFile struct {
	cap int
	// lines and entries list the outstanding entries, unordered: entries[i]
	// is the entry for lines[i]. A file holds a few dozen entries at most,
	// so a scan of lines finds one about as fast as a map would, and, unlike
	// a map whose deletions leave tombstones to rehash away, the slices never
	// allocate after construction.
	//simlint:nosnapshot parallel to entries, which a snapshot requires empty
	lines   []uint64
	entries []*MSHR

	// Statistics.
	Allocs uint64
	Merges uint64
	Full   uint64
	// Peak is the maximum simultaneous occupancy seen — the MLP ceiling a
	// run actually reached, plotted against capacity by the timeline tools.
	Peak int

	// Simulator self-profiling (not simulated state, not snapshotted):
	// Allocate outcomes against the recycle pool. PoolHits reuse an entry
	// (and its waiter-list backing array); PoolNews hit the Go allocator.
	// A warm file should be ~all hits after the first few misses.
	PoolHits uint64 //simlint:nosnapshot simulator self-profiling, not simulated state
	PoolNews uint64 //simlint:nosnapshot simulator self-profiling, not simulated state

	// Lifetime conservation counters. Unlike Allocs (zeroed by ResetStats
	// while entries are outstanding), these are never reset, so
	// allocTotal == completeTotal + Outstanding() holds at all times; see
	// CheckConservation.
	allocTotal    uint64
	completeTotal uint64

	// free holds recycled entries (see Recycle).
	//simlint:nosnapshot host-side recycle pool; its contents never reach simulated state
	free []*MSHR
	// tokens holds the emptied backing arrays of recycled entries' token
	// lists. An entry takes one when a list gains its first token, so the
	// arrays circulate among entries and the pool soon holds arrays as long
	// as any list gets; arrays kept per entry would each grow separately.
	//simlint:nosnapshot host-side recycle pool; its contents never reach simulated state
	tokens [][]Token
}

// MSHR is one outstanding line fill.
type MSHR struct {
	LineAddr uint64
	// Waiters are the completions the owner delivers at fill.
	Waiters []Token
	// Prefetch is true while the fill is owed only to prefetch requests; a
	// demand merge clears it (late prefetch).
	Prefetch bool
	// DemandMerged records that a demand access merged into a prefetch MSHR
	// (FDP lateness signal).
	DemandMerged bool
	// FillFromMem is set by the owner when the fill had to go to DRAM, so
	// waiters can learn how deep the miss went.
	FillFromMem bool
	// EarlyMiss lists the loads the owner notifies the moment the miss is
	// known to be DRAM-bound (runahead needs to learn this without waiting
	// for data).
	EarlyMiss []Token
	// Req is the requestor (core) the fill is attributed to in shared MSHR
	// files — the LLC level uses it to charge eviction writebacks to the core
	// whose miss displaced the victim. Recycle zeroes it, so owners restamp
	// it after every Allocate.
	Req int
}

// NewMSHRFile returns an MSHR file with the given capacity.
func NewMSHRFile(capacity int) *MSHRFile {
	if capacity <= 0 {
		panic("cache: MSHR file needs positive capacity")
	}
	return &MSHRFile{cap: capacity, lines: make([]uint64, 0, capacity), entries: make([]*MSHR, 0, capacity)}
}

// find returns the index of lineAddr's entry, or -1.
func (f *MSHRFile) find(lineAddr uint64) int {
	for i, l := range f.lines {
		if l == lineAddr {
			return i
		}
	}
	return -1
}

// Lookup returns the outstanding entry for lineAddr, if any.
func (f *MSHRFile) Lookup(lineAddr uint64) (*MSHR, bool) {
	if i := f.find(lineAddr); i >= 0 {
		return f.entries[i], true
	}
	return nil, false
}

// FullNow reports whether no new entry can be allocated.
func (f *MSHRFile) FullNow() bool { return len(f.entries) >= f.cap }

// Allocate creates an entry for lineAddr. It returns nil and counts the
// rejection when the file is full. lineAddr must not already be present
// (callers merge via Lookup first).
func (f *MSHRFile) Allocate(lineAddr uint64, prefetch bool) *MSHR {
	if f.find(lineAddr) >= 0 {
		panic("cache: MSHR already allocated for line")
	}
	if len(f.entries) >= f.cap {
		f.Full++
		return nil
	}
	var m *MSHR
	if n := len(f.free); n > 0 {
		m = f.free[n-1]
		f.free[n-1] = nil
		f.free = f.free[:n-1]
		m.LineAddr, m.Prefetch = lineAddr, prefetch
		f.PoolHits++
	} else {
		m = &MSHR{LineAddr: lineAddr, Prefetch: prefetch}
		f.PoolNews++
	}
	f.lines = append(f.lines, lineAddr)
	f.entries = append(f.entries, m)
	f.Allocs++
	f.allocTotal++
	if n := len(f.entries); n > f.Peak {
		f.Peak = n
	}
	return m
}

// Merge attaches a waiter to an existing entry; a TokNone waiter attaches
// nothing. A demand merge into a prefetch entry converts it and records the
// lateness.
func (f *MSHRFile) Merge(m *MSHR, demand bool, waiter Token) {
	if waiter.Kind != TokNone {
		m.Waiters = f.appendToken(m.Waiters, waiter)
	}
	if demand && m.Prefetch {
		m.Prefetch = false
		m.DemandMerged = true
	}
	f.Merges++
}

// AddEarlyMiss queues a load to be notified when m's miss is known to be
// DRAM-bound.
func (f *MSHRFile) AddEarlyMiss(m *MSHR, t Token) {
	m.EarlyMiss = f.appendToken(m.EarlyMiss, t)
}

// appendToken appends t to list, taking a pooled array for an empty one.
func (f *MSHRFile) appendToken(list []Token, t Token) []Token {
	if list == nil {
		if n := len(f.tokens); n > 0 {
			list = f.tokens[n-1]
			f.tokens[n-1] = nil
			f.tokens = f.tokens[:n-1]
		} else {
			list = newTokens()
		}
	}
	return append(list, t)
}

// newTokens is appendToken's pool miss, kept out of line so the hot paths
// appendToken inlines into carry no allocation; a warm file does not reach
// it.
//
//go:noinline
func newTokens() []Token { return make([]Token, 0, 1) }

// Complete removes the entry and returns it so the caller can run waiters.
func (f *MSHRFile) Complete(lineAddr uint64) *MSHR {
	i := f.find(lineAddr)
	if i < 0 {
		panic("cache: completing MSHR that was never allocated")
	}
	m, last := f.entries[i], len(f.entries)-1
	f.lines[i], f.entries[i] = f.lines[last], f.entries[last]
	f.entries[last] = nil
	f.lines, f.entries = f.lines[:last], f.entries[:last]
	f.completeTotal++
	return m
}

// Recycle returns a completed entry to the allocation pool. The caller must
// be done with every reference to m — waiters delivered, fill level
// inspected — because the next Allocate may hand the same entry out again.
// The token lists' backing arrays go back to the array pool.
func (f *MSHRFile) Recycle(m *MSHR) {
	for _, list := range [2][]Token{m.Waiters, m.EarlyMiss} {
		if list != nil {
			f.tokens = append(f.tokens, list[:0])
		}
	}
	*m = MSHR{}
	f.free = append(f.free, m)
}

// Outstanding returns the number of in-flight entries.
func (f *MSHRFile) Outstanding() int { return len(f.entries) }

// Clear drops all entries (used only by whole-machine reset in tests). The
// dropped entries count as completed so conservation keeps holding.
func (f *MSHRFile) Clear() {
	clear(f.entries)
	f.lines, f.entries = f.lines[:0], f.entries[:0]
	f.completeTotal = f.allocTotal
}

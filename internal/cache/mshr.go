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
	cap     int
	entries map[uint64]*MSHR

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

	// free holds recycled entries (see Recycle); their waiter-list backing
	// arrays are kept so steady-state misses allocate nothing.
	//simlint:nosnapshot host-side recycle pool; its contents never reach simulated state
	free []*MSHR
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
	return &MSHRFile{cap: capacity, entries: make(map[uint64]*MSHR, capacity)}
}

// Lookup returns the outstanding entry for lineAddr, if any.
func (f *MSHRFile) Lookup(lineAddr uint64) (*MSHR, bool) {
	m, ok := f.entries[lineAddr]
	return m, ok
}

// FullNow reports whether no new entry can be allocated.
func (f *MSHRFile) FullNow() bool { return len(f.entries) >= f.cap }

// Allocate creates an entry for lineAddr. It returns nil and counts the
// rejection when the file is full. lineAddr must not already be present
// (callers merge via Lookup first).
func (f *MSHRFile) Allocate(lineAddr uint64, prefetch bool) *MSHR {
	if _, ok := f.entries[lineAddr]; ok {
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
	f.entries[lineAddr] = m
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
		m.Waiters = append(m.Waiters, waiter)
	}
	if demand && m.Prefetch {
		m.Prefetch = false
		m.DemandMerged = true
	}
	f.Merges++
}

// Complete removes the entry and returns it so the caller can run waiters.
func (f *MSHRFile) Complete(lineAddr uint64) *MSHR {
	m, ok := f.entries[lineAddr]
	if !ok {
		panic("cache: completing MSHR that was never allocated")
	}
	delete(f.entries, lineAddr)
	f.completeTotal++
	return m
}

// Recycle returns a completed entry to the allocation pool. The caller must
// be done with every reference to m — waiters delivered, fill level
// inspected — because the next Allocate may hand the same entry out again.
// The token lists' backing arrays survive for reuse.
func (f *MSHRFile) Recycle(m *MSHR) {
	*m = MSHR{Waiters: m.Waiters[:0], EarlyMiss: m.EarlyMiss[:0]}
	f.free = append(f.free, m)
}

// Outstanding returns the number of in-flight entries.
func (f *MSHRFile) Outstanding() int { return len(f.entries) }

// Clear drops all entries (used only by whole-machine reset in tests). The
// dropped entries count as completed so conservation keeps holding.
func (f *MSHRFile) Clear() {
	clear(f.entries)
	f.completeTotal = f.allocTotal
}

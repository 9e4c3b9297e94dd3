// Package memsys assembles the memory hierarchy of Table 1: 32KB L1
// instruction and data caches (3-cycle), a 1MB inclusive last-level cache
// (18-cycle), MSHRs at each level, the stream prefetcher (prefetching into
// the LLC), and the DDR3 memory controller. It is a pure timing model —
// data values live in the functional memory image owned by the core.
//
// The hierarchy is driven by the core clock: call Tick once per cycle, and
// issue accesses with Load/Store/Fetch, each described by a Token. Every
// requestor installs one Sink; completions come back to it as the access's
// token plus an Outcome carrying the cycle and the deepest level the access
// reached. Loads may be issued "no-wait" (runahead semantics): the load then
// completes as soon as an LLC miss is discovered, while the fill itself keeps
// going in the background — that background fill is exactly runahead's
// prefetching effect.
//
// The hierarchy is natively multi-requestor: NewShared builds one with N
// private L1 front ends (per-requestor caches, MSHRs, and statistics)
// competing for one inclusive LLC and one DRAM controller, which is how the
// multi-core cluster models shared-memory contention. New is the
// single-requestor special case — requestor 0 owns everything — and the
// requestor-less methods (Load, Store, Fetch...) address it, so single-core
// callers are untouched. When more than one requestor exists, L1 misses pass
// through a deterministic round-robin LLC arbiter (Config.LLCPorts grants
// per cycle) instead of going straight to the LLC lookup.
package memsys

import (
	"fmt"

	"runaheadsim/internal/cache"
	"runaheadsim/internal/dram"
	"runaheadsim/internal/prefetch"
)

// Level is the deepest level an access had to reach. Defined in package
// cache, beside the completion types MSHR entries carry, and re-exported
// here for the hierarchy's public API.
type Level = cache.Level

// Hierarchy levels.
const (
	LevelL1  = cache.LevelL1
	LevelLLC = cache.LevelLLC
	LevelMem = cache.LevelMem
)

// Outcome reports the completion of an access; see cache.Outcome.
type Outcome = cache.Outcome

// Token describes one access and comes back with its completion; see
// cache.Token.
type Token = cache.Token

// The token kinds a Sink tells apart from loads (TokLoad and TokLoadEarly);
// see cache.TokenKind.
const (
	TokStore = cache.TokStore
	TokFetch = cache.TokFetch
)

// Sink receives one requestor's completions. The hierarchy holds one per
// requestor (SetSink) and hands back the token each access was issued with,
// so a pending access is plain data and nothing is allocated per request. A
// requestor needs its sink before its first access.
type Sink interface {
	// Miss reports, at cycle now, that load t is DRAM-bound.
	Miss(t Token, now int64)
	// Done completes access t with outcome o.
	Done(t Token, o Outcome)
}

// Config describes the hierarchy.
type Config struct {
	L1I, L1D, LLC                cache.Config
	L1Latency, LLCLatency        int
	L1DMSHRs, L1IMSHRs, LLCMSHRs int
	DRAM                         dram.Config
	// LLCPorts bounds how many L1-miss accesses the shared LLC accepts per
	// cycle when the hierarchy has more than one requestor; the round-robin
	// arbiter queues the excess. Zero means the default (2). Ignored in
	// single-requestor hierarchies, where the L1→LLC path is unarbitrated
	// exactly as in the original single-core model.
	LLCPorts int
	// EnablePrefetch turns on the prefetcher at the LLC.
	EnablePrefetch bool
	// PrefetchKind selects the engine: "stream" (the paper's Table 1
	// prefetcher, default) or "delta" (the region-delta/stride alternative
	// from the related-work comparison).
	PrefetchKind string
	Prefetch     prefetch.Config
	DeltaPF      prefetch.DeltaConfig
}

// DefaultConfig matches Table 1 (prefetcher disabled; the baseline is
// no-prefetching).
func DefaultConfig() Config {
	return Config{
		L1I:            cache.Config{Name: "L1I", SizeBytes: 32 << 10, Ways: 8, LineBytes: 64},
		L1D:            cache.Config{Name: "L1D", SizeBytes: 32 << 10, Ways: 8, LineBytes: 64},
		LLC:            cache.Config{Name: "LLC", SizeBytes: 1 << 20, Ways: 8, LineBytes: 64},
		L1Latency:      3,
		LLCLatency:     18,
		L1DMSHRs:       32,
		L1IMSHRs:       8,
		LLCMSHRs:       64,
		LLCPorts:       2,
		DRAM:           dram.DefaultConfig(),
		EnablePrefetch: false,
		PrefetchKind:   "stream",
		Prefetch:       prefetch.DefaultConfig(),
		DeltaPF:        prefetch.DefaultDeltaConfig(),
	}
}

type reqKind uint8

const (
	kindData reqKind = iota
	kindInstr
	kindPrefetch
)

// Never is the NextEvent value of a hierarchy with no pending work: nothing
// will happen until a new access arrives.
const Never = int64(1<<63 - 1)

// evKind discriminates the typed scheduled events. Events hold their whole
// payload by value — completions included, as tokens — so scheduling one
// allocates nothing and the queue holds no pointers.
type evKind uint8

const (
	evDone      evKind = iota // sink.Done(tok, Outcome{h.now, lvl, line})
	evMiss                    // sink.Miss(tok, h.now)
	evLLCAccess               // llcAccess(req, line, rk)
	evFillL1                  // fillL1(req, line, rk, false) — LLC-hit fill
	evFillLLC                 // fillLLC(line, pf) — line arrived from DRAM
)

// event is one scheduled hierarchy action. req routes L1-bound actions to
// the owning requestor's front end.
type event struct {
	cycle int64
	seq   uint64
	tok   Token
	line  uint64
	req   int32
	kind  evKind
	rk    reqKind
	lvl   Level
	pf    bool
}

// fire dispatches the event at cycle h.now.
func (h *Hierarchy) fire(e *event) {
	switch e.kind {
	case evDone:
		h.fr[e.req].sink.Done(e.tok, Outcome{When: h.now, Level: e.lvl, Line: e.line})
	case evMiss:
		h.fr[e.req].sink.Miss(e.tok, h.now)
	case evLLCAccess:
		h.llcAccess(int(e.req), e.line, e.rk)
	case evFillL1:
		h.fillL1(int(e.req), e.line, e.rk, false)
	case evFillLLC:
		h.fillLLC(e.line, e.pf)
	}
}

// reqRing is a FIFO of DRAM requests backed by a slice with a moving head.
// The old `q = q[1:]` head-slicing kept every granted *dram.Request alive in
// the backing array until the whole queue drained; the ring nils slots as
// they pop and compacts once the dead prefix dominates.
type reqRing struct {
	buf  []*dram.Request
	head int
}

func (q *reqRing) len() int             { return len(q.buf) - q.head }
func (q *reqRing) front() *dram.Request { return q.buf[q.head] }
func (q *reqRing) push(r *dram.Request) { q.buf = append(q.buf, r) }
func (q *reqRing) pop() {
	q.buf[q.head] = nil
	q.head++
	switch {
	case q.head == len(q.buf):
		q.buf, q.head = q.buf[:0], 0
	case q.head >= 64 && q.head*2 >= len(q.buf):
		n := copy(q.buf, q.buf[q.head:])
		for i := n; i < len(q.buf); i++ {
			q.buf[i] = nil
		}
		q.buf, q.head = q.buf[:n], 0
	}
}

// eventHeap is a hand-rolled binary min-heap of events ordered by
// (cycle, seq). container/heap would box every event into an interface on
// Push and Pop — two heap allocations per hierarchy hop, a dominant term in
// memory-bound allocation profiles — so the sift loops are written out here
// (mirroring core's wakeup-queue heap).
type eventHeap []event

func eventBefore(a, b *event) bool {
	if a.cycle != b.cycle {
		return a.cycle < b.cycle
	}
	return a.seq < b.seq
}

func (h *eventHeap) push(ev event) {
	s := append(*h, ev)
	*h = s
	for i := len(s) - 1; i > 0; {
		parent := (i - 1) / 2
		if !eventBefore(&s[i], &s[parent]) {
			break
		}
		s[i], s[parent] = s[parent], s[i]
		i = parent
	}
}

func (h *eventHeap) pop() event {
	s := *h
	top := s[0]
	n := len(s) - 1
	s[0] = s[n]
	s = s[:n]
	*h = s
	for i := 0; ; {
		child := 2*i + 1
		if child >= n {
			break
		}
		if r := child + 1; r < n && eventBefore(&s[r], &s[child]) {
			child = r
		}
		if !eventBefore(&s[child], &s[i]) {
			break
		}
		s[i], s[child] = s[child], s[i]
		i = child
	}
	return top
}

// ReqStats are one requestor's statistics: its private L1 traffic plus its
// share of the shared-LLC and DRAM demand. In a single-requestor hierarchy
// requestor 0's ReqStats mirror the aggregate fields on Hierarchy.
type ReqStats struct {
	Loads, Stores, Fetches uint64
	LLCDemandAccesses      uint64
	LLCDemandMisses        uint64
	DRAMReadsDemand        uint64
	DRAMReadsPrefetch      uint64
	DRAMWrites             uint64
	// LLCArbGrants counts this requestor's accesses granted by the shared-LLC
	// arbiter; LLCArbWaitCycles sums the cycles those accesses queued past
	// their L1→LLC transit, i.e. pure port contention. Both stay zero in a
	// single-requestor hierarchy (no arbitration on that path).
	LLCArbGrants     uint64
	LLCArbWaitCycles uint64
}

// front is one requestor's private L1 level: instruction and data caches,
// their MSHR files, the requestor's completion sink, per-requestor
// statistics, and the host's observability hook.
type front struct {
	l1i, l1d         *cache.Cache
	l1iMSHR, l1dMSHR *cache.MSHRFile

	// sink receives this requestor's completions. Host wiring: the owning
	// core installs itself at construction, so a restored hierarchy gets it
	// back the same way.
	sink Sink

	// onLLCMiss, when non-nil, is invoked on every LLC demand miss from this
	// requestor, at miss discovery (before MSHR allocation). Host hook; the
	// restoring host attaches its own.
	onLLCMiss func(now int64, line uint64, instr bool)

	st ReqStats
}

// arbEntry is one L1 miss queued at the shared-LLC arbiter. readyAt is the
// cycle the access completes its L1→LLC transit (enqueue + L1Latency);
// arbitration delay beyond readyAt is port contention, counted in
// LLCArbWaitCycles.
type arbEntry struct {
	line    uint64
	rk      reqKind
	readyAt int64
}

// llcRetryEntry is one demand miss waiting for a free LLC MSHR.
type llcRetryEntry struct {
	line uint64
	req  int32
	kind reqKind
}

// llcArb is the shared-LLC input arbiter: one FIFO per requestor, drained
// round-robin up to LLCPorts grants per cycle. The grant order depends only
// on queue contents and the rotating pointer — never on map iteration or
// host scheduling — so multi-core interleavings are deterministic. Only the
// rotating pointer is snapshotted: the queues drain empty before a snapshot
// (Drained requires pending == 0).
type llcArb struct {
	q       [][]arbEntry
	head    []int
	next    int
	pending int
}

func (a *llcArb) push(r int, e arbEntry) {
	a.q[r] = append(a.q[r], e)
	a.pending++
}

func (a *llcArb) peek(r int) (arbEntry, bool) {
	if a.head[r] >= len(a.q[r]) {
		return arbEntry{}, false
	}
	return a.q[r][a.head[r]], true
}

func (a *llcArb) pop(r int) arbEntry {
	e := a.q[r][a.head[r]]
	a.head[r]++
	a.pending--
	if a.head[r] == len(a.q[r]) {
		a.q[r], a.head[r] = a.q[r][:0], 0
	}
	return e
}

// Hierarchy is the assembled memory system: N private L1 front ends over one
// shared LLC and DRAM controller (N == 1 for the single-core machine).
type Hierarchy struct {
	cfg Config
	fr  []front
	arb llcArb

	llc     *cache.Cache
	llcMSHR *cache.MSHRFile
	mem     *dram.Controller
	pf      prefetch.Engine

	events   eventHeap
	seq      uint64
	now      int64
	dramWait reqRing         // overflow when the 64-entry memory queue is full
	llcRetry []llcRetryEntry // demand misses waiting for a free LLC MSHR

	// reqPool recycles dram.Request values: the controller hands each
	// request back through its Release hook after the completion callback
	// runs, and the two shared DoneR method values below replace the
	// per-request fill closures.
	//simlint:nosnapshot host-side recycle pool; its contents never reach simulated state
	reqPool      []*dram.Request
	demandDone   func(r *dram.Request, cy int64) //simlint:nosnapshot method value rebuilt by the constructor
	prefetchDone func(r *dram.Request, cy int64) //simlint:nosnapshot method value rebuilt by the constructor

	// onGrant holds per-requestor DRAM-grant hooks; grantHooks counts the
	// non-nil ones so the controller-side dispatcher is installed only while
	// a consumer exists.
	//simlint:nosnapshot host hooks; the restoring host attaches its own
	onGrant    []func(now int64, line uint64, write, rowHit bool)
	grantHooks int //simlint:nosnapshot derived hook count, host-side only

	// lateEvents counts events that fired after their scheduled cycle. In a
	// correctly driven hierarchy this never happens — Tick runs at every
	// cycle the event horizon names — so a nonzero count means the clock
	// warped over a due event; CheckInvariants reports it.
	//simlint:nosnapshot sanitizer tripwire; zero in any hierarchy healthy enough to snapshot
	lateEvents uint64

	// Aggregate statistics, summed across requestors (the single-core API;
	// per-requestor splits live in ReqStats).
	Loads, Stores, Fetches uint64
	LLCDemandAccesses      uint64
	LLCDemandMisses        uint64
	DRAMReadsDemand        uint64
	DRAMReadsPrefetch      uint64
	DRAMWrites             uint64
}

// New assembles an idle single-requestor hierarchy.
func New(cfg Config) *Hierarchy { return NewShared(cfg, 1) }

// NewShared assembles an idle hierarchy with n private L1 front ends sharing
// the LLC, the prefetcher, and the DRAM controller.
func NewShared(cfg Config, n int) *Hierarchy {
	if n < 1 {
		panic("memsys: a hierarchy needs at least one requestor")
	}
	if cfg.LLCPorts <= 0 {
		cfg.LLCPorts = 2
	}
	h := &Hierarchy{
		cfg:     cfg,
		fr:      make([]front, n),
		llc:     cache.New(cfg.LLC),
		llcMSHR: cache.NewMSHRFile(cfg.LLCMSHRs),
		mem:     dram.New(cfg.DRAM),
		onGrant: make([]func(int64, uint64, bool, bool), n),
	}
	h.arb.q = make([][]arbEntry, n)
	h.arb.head = make([]int, n)
	h.mem.EnsureRequestors(n)
	for i := range h.fr {
		f := &h.fr[i]
		f.l1i = cache.New(cfg.L1I)
		f.l1d = cache.New(cfg.L1D)
		f.l1iMSHR = cache.NewMSHRFile(cfg.L1IMSHRs)
		f.l1dMSHR = cache.NewMSHRFile(cfg.L1DMSHRs)
	}
	h.demandDone = func(r *dram.Request, cy int64) {
		h.scheduleEv(cy, event{kind: evFillLLC, line: r.LineAddr, pf: false})
	}
	h.prefetchDone = func(r *dram.Request, cy int64) {
		h.scheduleEv(cy, event{kind: evFillLLC, line: r.LineAddr, pf: true})
	}
	h.mem.Release = func(r *dram.Request) {
		*r = dram.Request{}
		h.reqPool = append(h.reqPool, r)
	}
	if cfg.EnablePrefetch {
		switch cfg.PrefetchKind {
		case "", "stream":
			pcfg := cfg.Prefetch
			pcfg.LineBytes = cfg.LLC.LineBytes
			h.pf = prefetch.New(pcfg)
		case "delta":
			dcfg := cfg.DeltaPF
			dcfg.LineBytes = cfg.LLC.LineBytes
			h.pf = prefetch.NewDelta(dcfg)
		default:
			panic(fmt.Sprintf("memsys: unknown prefetch kind %q", cfg.PrefetchKind))
		}
	}
	return h
}

// Config returns the hierarchy configuration.
func (h *Hierarchy) Config() Config { return h.cfg }

// Requestors returns the number of private L1 front ends.
func (h *Hierarchy) Requestors() int { return len(h.fr) }

// DRAM exposes the memory controller (for statistics).
func (h *Hierarchy) DRAM() *dram.Controller { return h.mem }

// Prefetcher exposes the prefetch engine, nil when disabled.
func (h *Hierarchy) Prefetcher() prefetch.Engine { return h.pf }

// L1D exposes requestor 0's L1 data cache; L1DR addresses any requestor.
func (h *Hierarchy) L1D() *cache.Cache         { return h.fr[0].l1d }
func (h *Hierarchy) L1DR(req int) *cache.Cache { return h.fr[req].l1d }

// L1I exposes requestor 0's L1 instruction cache; L1IR addresses any
// requestor.
func (h *Hierarchy) L1I() *cache.Cache         { return h.fr[0].l1i }
func (h *Hierarchy) L1IR(req int) *cache.Cache { return h.fr[req].l1i }

// LLC exposes the shared last-level cache (for statistics).
func (h *Hierarchy) LLC() *cache.Cache { return h.llc }

// Req returns requestor req's statistics.
func (h *Hierarchy) Req(req int) *ReqStats { return &h.fr[req].st }

// SetSink installs requestor req's completion sink.
func (h *Hierarchy) SetSink(req int, s Sink) { h.fr[req].sink = s }

// SetLLCMissHook installs (or, with nil, removes) requestor req's LLC
// demand-miss hook: invoked at miss discovery, before MSHR allocation, so
// the consumer sees misses that merge or wait for structural resources too.
func (h *Hierarchy) SetLLCMissHook(req int, fn func(now int64, line uint64, instr bool)) {
	h.fr[req].onLLCMiss = fn
}

// SetGrantHook installs (or, with nil, removes) requestor req's DRAM-grant
// hook. The controller-side dispatcher exists only while at least one hook
// does, so hierarchies with no observers pay nothing per grant.
func (h *Hierarchy) SetGrantHook(req int, fn func(now int64, line uint64, write, rowHit bool)) {
	if (h.onGrant[req] == nil) != (fn == nil) {
		if fn == nil {
			h.grantHooks--
		} else {
			h.grantHooks++
		}
	}
	h.onGrant[req] = fn
	if h.grantHooks == 0 {
		h.mem.OnGrant = nil
		return
	}
	h.mem.OnGrant = func(now int64, r *dram.Request, rowHit bool) {
		if g := h.onGrant[r.Req]; g != nil {
			g(now, r.LineAddr, r.Write, rowHit)
		}
	}
}

// TotalDRAMRequests returns all granted DRAM requests (demand + prefetch +
// writeback), the quantity Figure 16 normalizes.
func (h *Hierarchy) TotalDRAMRequests() uint64 {
	return h.DRAMReadsDemand + h.DRAMReadsPrefetch + h.DRAMWrites
}

// OutstandingDataMissesR returns requestor req's in-flight L1D misses.
func (h *Hierarchy) OutstandingDataMissesR(req int) int {
	return h.fr[req].l1dMSHR.Outstanding()
}

// MSHRFilesR returns requestor req's private L1 MSHR files, so the
// self-profiling exporter can read their pool counters.
func (h *Hierarchy) MSHRFilesR(req int) (l1i, l1d *cache.MSHRFile) {
	return h.fr[req].l1iMSHR, h.fr[req].l1dMSHR
}

// LLCMSHRFile returns the shared LLC MSHR file.
func (h *Hierarchy) LLCMSHRFile() *cache.MSHRFile { return h.llcMSHR }

// scheduleEv enqueues ev to fire at cycle (clamped to at least the next
// cycle, like every hierarchy hop).
func (h *Hierarchy) scheduleEv(cycle int64, ev event) {
	if cycle <= h.now {
		cycle = h.now + 1
	}
	h.seq++
	ev.cycle, ev.seq = cycle, h.seq
	h.events.push(ev)
}

// newReq returns a request from the free pool (or a fresh one), stamped with
// the given fields.
func (h *Hierarchy) newReq(req int, line uint64, write bool) *dram.Request {
	var r *dram.Request
	if n := len(h.reqPool); n > 0 {
		r = h.reqPool[n-1]
		h.reqPool[n-1] = nil
		h.reqPool = h.reqPool[:n-1]
	} else {
		r = &dram.Request{}
	}
	r.LineAddr, r.Write, r.Arrival, r.Req = line, write, h.now, req
	return r
}

// Tick advances the hierarchy to cycle now, firing due events, retrying
// back-pressured requests, granting DRAM requests, and — in shared
// hierarchies — running the LLC arbiter.
func (h *Hierarchy) Tick(now int64) {
	h.now = now
	// Retry demand misses blocked on a full LLC MSHR file.
	if len(h.llcRetry) > 0 {
		kept := h.llcRetry[:0]
		for _, e := range h.llcRetry {
			if !h.tryLLCMiss(int(e.req), e.line, e.kind) {
				kept = append(kept, e)
			}
		}
		h.llcRetry = kept
	}
	// Drain the overflow queue into the 64-entry memory queue.
	for h.dramWait.len() > 0 && h.mem.Enqueue(h.dramWait.front()) {
		h.dramWait.pop()
	}
	h.mem.Tick(now)
	if h.arb.pending > 0 {
		h.arbGrant(now)
	}
	for len(h.events) > 0 && h.events[0].cycle <= now {
		e := h.events.pop()
		if e.cycle < now {
			h.lateEvents++ // a warped clock jumped over a due event
		}
		h.fire(&e)
	}
}

// arbGrant runs one cycle of shared-LLC arbitration: up to LLCPorts accesses
// whose L1→LLC transit has completed are granted, round-robin starting at
// the rotating pointer, which advances past each granted requestor so no
// stream can monopolize the ports.
func (h *Hierarchy) arbGrant(now int64) {
	n := len(h.fr)
	for granted := 0; granted < h.cfg.LLCPorts; granted++ {
		r := -1
		for i := 0; i < n; i++ {
			cand := (h.arb.next + i) % n
			if e, ok := h.arb.peek(cand); ok && e.readyAt <= now {
				r = cand
				break
			}
		}
		if r < 0 {
			return
		}
		e := h.arb.pop(r)
		h.arb.next = (r + 1) % n
		st := &h.fr[r].st
		st.LLCArbGrants++
		st.LLCArbWaitCycles += uint64(now - e.readyAt)
		h.llcAccess(r, e.line, e.rk)
	}
}

// reqShift positions each requestor's private physical region in the shared
// LLC/DRAM domain: core i's local line L crosses the boundary as
// L | i<<reqShift — 1 TB apart, far above any kernel's footprint. The
// kernels are independent programs whose virtual ranges overlap, so without
// the offset a multi-programmed mix would falsely share LLC lines (one
// core's fill servicing another's miss), corrupting the contention study.
// Requestor 0's region starts at 0, so a single-requestor hierarchy sees
// unchanged addresses — the bit-identity the equivalence gate pins.
const reqShift = 40

func reqBase(req int) uint64 { return uint64(req) << reqShift }

// sendLLC routes an L1 miss toward the shared LLC, translating the
// requestor-local line into its private region of the shared physical
// space. Single-requestor hierarchies schedule the access directly at
// L1Latency — the original unarbitrated path, preserved bit-for-bit. Shared
// hierarchies queue it at the arbiter with the same transit latency.
func (h *Hierarchy) sendLLC(req int, now int64, line uint64, rk reqKind) {
	line |= reqBase(req)
	if len(h.fr) == 1 {
		h.scheduleEv(now+int64(h.cfg.L1Latency), event{kind: evLLCAccess, line: line, rk: rk})
		return
	}
	h.arb.push(req, arbEntry{line: line, rk: rk, readyAt: now + int64(h.cfg.L1Latency)})
}

// arbNext returns the earliest cycle the arbiter could grant: now+1 while a
// transit-complete entry waits on ports, else the earliest head transit
// completion. Never when every queue is empty.
func (h *Hierarchy) arbNext() int64 {
	next := Never
	for r := range h.fr {
		if e, ok := h.arb.peek(r); ok {
			if e.readyAt <= h.now {
				return h.now + 1
			}
			if e.readyAt < next {
				next = e.readyAt
			}
		}
	}
	return next
}

// NextEvent returns the next cycle at which the hierarchy has work to do:
// the minimum of the event-heap top, the DRAM controller's grant horizon,
// the LLC arbiter's next grant, and — while any retry backlog exists — the
// very next cycle (back-pressured work is retried every Tick). It returns
// Never when the hierarchy is fully idle. The value is a safe lower bound:
// ticking earlier than it is a no-op, ticking every cycle up to it is
// exactly the per-cycle reference behavior, and no event, retry, grant, or
// arbitration can occur strictly before it.
func (h *Hierarchy) NextEvent() int64 {
	if len(h.llcRetry) > 0 || h.dramWait.len() > 0 {
		return h.now + 1
	}
	next := Never
	if len(h.events) > 0 {
		next = h.events[0].cycle
	}
	if nr := h.mem.NextReady(h.now); nr < next {
		next = nr
	}
	if h.arb.pending > 0 {
		if an := h.arbNext(); an < next {
			next = an
		}
	}
	return next
}

// Load issues requestor 0's data read of t.Addr; LoadR addresses any
// requestor. t comes back to the requestor's sink: through Sink.Miss as soon
// as the access is known to be DRAM-bound — the signal that lets a blocked
// ROB head trigger runahead without waiting for the data — and through
// Sink.Done when it completes.
//
// When t.NoWait is set (runahead semantics), the load completes at miss
// discovery (Level Mem, no data) instead of at data arrival, and the fill
// continues in the background.
//
// Load reports false when the L1D MSHR file is full and the access must be
// retried. A refused load still counts as an access and an L1D miss, and
// leaves nothing behind.
func (h *Hierarchy) Load(now int64, t Token) bool { return h.LoadR(0, now, t) }

// LoadHitR is the allocation-free fast path for requestor req's common
// L1D-hit case: if addr hits, it counts the access exactly as Load's hit
// path would (Loads, the cache's hit statistic and LRU refresh) and reports
// true, leaving the completion timing — L1Latency cycles, like every
// hierarchy hop — to the caller, which can schedule a typed event of its own
// instead of routing the completion through the hierarchy. On a miss nothing
// is counted or disturbed and the caller falls back to Load.
//
//simlint:hotpath
func (h *Hierarchy) LoadHitR(req int, addr uint64) bool {
	f := &h.fr[req]
	if !f.l1d.Probe(addr) {
		return false
	}
	h.Loads++
	f.st.Loads++
	f.l1d.Lookup(addr)
	return true
}

//simlint:hotpath
func (h *Hierarchy) LoadR(req int, now int64, t Token) bool {
	f := &h.fr[req]
	h.Loads++
	f.st.Loads++
	t.Kind, t.Req = cache.TokLoad, int32(req)
	at := now + int64(h.cfg.L1Latency)
	if hit, _ := f.l1d.Lookup(t.Addr); hit {
		h.scheduleEv(at, event{kind: evDone, req: t.Req, tok: t, lvl: LevelL1, line: f.l1d.LineAddr(t.Addr)})
		return true
	}
	line := f.l1d.LineAddr(t.Addr)
	if m, ok := f.l1dMSHR.Lookup(line); ok {
		if m.FillFromMem {
			h.scheduleEv(at, event{kind: evMiss, req: t.Req, tok: t})
		} else {
			m.EarlyMiss = append(m.EarlyMiss, t)
		}
		if t.NoWait {
			// The line is already in flight; runahead treats it as a miss in
			// progress and moves on without waiting.
			f.l1dMSHR.Merge(m, true, Token{})
			h.scheduleEv(at, event{kind: evDone, req: t.Req, tok: t, lvl: LevelMem})
			return true
		}
		f.l1dMSHR.Merge(m, true, t)
		return true
	}
	if f.l1dMSHR.FullNow() {
		return false
	}
	m := f.l1dMSHR.Allocate(line, false)
	if t.NoWait {
		// Completes at the early-miss notice when the LLC lookup resolves as
		// a miss; if the LLC hits instead, the fill completes it quickly.
		t.Kind = cache.TokLoadEarly
	}
	m.EarlyMiss = append(m.EarlyMiss, t)
	f.l1dMSHR.Merge(m, true, t)
	h.sendLLC(req, now, line, kindData)
	return true
}

// Store issues requestor 0's data write of t.Addr (write-allocate,
// write-back); StoreR addresses any requestor. t completes when the line is
// writable in the L1D. Store reports false when the L1D MSHR file is full.
func (h *Hierarchy) Store(now int64, t Token) bool { return h.StoreR(0, now, t) }

func (h *Hierarchy) StoreR(req int, now int64, t Token) bool {
	f := &h.fr[req]
	h.Stores++
	f.st.Stores++
	t.Kind, t.Req = cache.TokStore, int32(req)
	if hit, _ := f.l1d.Lookup(t.Addr); hit {
		f.l1d.MarkDirty(t.Addr)
		h.scheduleEv(now+int64(h.cfg.L1Latency), event{kind: evDone, req: t.Req, tok: t, lvl: LevelL1, line: f.l1d.LineAddr(t.Addr)})
		return true
	}
	line := f.l1d.LineAddr(t.Addr)
	if m, ok := f.l1dMSHR.Lookup(line); ok {
		f.l1dMSHR.Merge(m, true, t)
		return true
	}
	if f.l1dMSHR.FullNow() {
		return false
	}
	m := f.l1dMSHR.Allocate(line, false)
	f.l1dMSHR.Merge(m, true, t)
	h.sendLLC(req, now, line, kindData)
	return true
}

// Fetch issues requestor 0's instruction read of t.Addr; FetchR addresses
// any requestor. It reports false when the L1I MSHR file is full.
func (h *Hierarchy) Fetch(now int64, t Token) bool { return h.FetchR(0, now, t) }

func (h *Hierarchy) FetchR(req int, now int64, t Token) bool {
	f := &h.fr[req]
	h.Fetches++
	f.st.Fetches++
	t.Kind, t.Req = cache.TokFetch, int32(req)
	if hit, _ := f.l1i.Lookup(t.Addr); hit {
		h.scheduleEv(now+int64(h.cfg.L1Latency), event{kind: evDone, req: t.Req, tok: t, lvl: LevelL1, line: f.l1i.LineAddr(t.Addr)})
		return true
	}
	line := f.l1i.LineAddr(t.Addr)
	if m, ok := f.l1iMSHR.Lookup(line); ok {
		f.l1iMSHR.Merge(m, true, t)
		return true
	}
	if f.l1iMSHR.FullNow() {
		return false
	}
	m := f.l1iMSHR.Allocate(line, false)
	f.l1iMSHR.Merge(m, true, t)
	h.sendLLC(req, now, line, kindInstr)
	return true
}

func fillLevel(m *cache.MSHR) Level {
	if m.FillFromMem {
		return LevelMem
	}
	return LevelLLC
}

// llcAccess handles an L1-level miss (or a prefetch probe) arriving at the
// shared LLC on behalf of requestor req.
func (h *Hierarchy) llcAccess(req int, line uint64, kind reqKind) {
	f := &h.fr[req]
	demand := kind != kindPrefetch
	hit, wasPf := h.llc.Lookup(line)
	if demand {
		h.LLCDemandAccesses++
		f.st.LLCDemandAccesses++
		if !hit {
			h.LLCDemandMisses++
			f.st.LLCDemandMisses++
			if f.onLLCMiss != nil {
				f.onLLCMiss(h.now, line, kind == kindInstr)
			}
		}
		if h.pf != nil {
			for _, pa := range h.pf.Train(line, hit, wasPf) {
				h.issuePrefetch(req, pa)
			}
		}
	}
	if hit {
		h.scheduleEv(h.now+int64(h.cfg.LLCLatency), event{kind: evFillL1, line: line, req: int32(req), rk: kind})
		return
	}
	// LLC miss: the requester learns it is DRAM-bound now, even if the miss
	// has to wait for an MSHR or queue slot (runahead must be able to poison
	// and move past it immediately).
	h.noteEarlyMiss(req, line, kind)
	if m, ok := h.llcMSHR.Lookup(line); ok {
		if demand && m.Prefetch && h.pf != nil {
			h.pf.NoteLatePrefetch()
		}
		h.llcMSHR.Merge(m, demand, cache.Token{})
		h.attachL1Fill(req, m, kind)
		return
	}
	if !h.tryLLCMiss(req, line, kind) {
		h.llcRetry = append(h.llcRetry, llcRetryEntry{line: line, req: int32(req), kind: kind})
	}
}

// tryLLCMiss allocates the LLC MSHR for a demand miss and sends the fill to
// DRAM. It reports false when the MSHR file is full and the miss must be
// retried next Tick.
func (h *Hierarchy) tryLLCMiss(req int, line uint64, kind reqKind) bool {
	if m, ok := h.llcMSHR.Lookup(line); ok {
		// While this miss sat in the retry backlog, another access to the
		// same line (an instruction and a data miss can share one) got its
		// MSHR; join the in-flight fill instead of double-allocating.
		if kind != kindPrefetch && m.Prefetch && h.pf != nil {
			h.pf.NoteLatePrefetch()
		}
		h.llcMSHR.Merge(m, kind != kindPrefetch, cache.Token{})
		h.attachL1Fill(req, m, kind)
		return true
	}
	if h.llcMSHR.FullNow() {
		return false
	}
	m := h.llcMSHR.Allocate(line, false)
	m.Req = req
	m.FillFromMem = true
	h.attachL1Fill(req, m, kind)
	h.DRAMReadsDemand++
	h.fr[req].st.DRAMReadsDemand++
	r := h.newReq(req, line, false)
	r.DoneR = h.demandDone
	h.enqueueDRAM(r)
	return true
}

// noteEarlyMiss delivers runahead early-miss notifications for data misses
// that are now known to be DRAM-bound: every listed load hears Miss, and the
// no-wait load that allocated the MSHR completes right after its notice.
// Setting FillFromMem records that the notices went out (fillL1 then skips
// that load's waiter; later merges get their notice at once). line arrives
// in the shared domain and is mapped back to the requestor's local space for
// the L1 MSHR lookup.
func (h *Hierarchy) noteEarlyMiss(req int, line uint64, kind reqKind) {
	if kind != kindData {
		return
	}
	line &^= reqBase(req)
	f := &h.fr[req]
	if m, ok := f.l1dMSHR.Lookup(line); ok {
		m.FillFromMem = true
		for _, t := range m.EarlyMiss {
			f.sink.Miss(t, h.now)
			if t.Kind == cache.TokLoadEarly {
				f.sink.Done(t, Outcome{When: h.now, Level: LevelMem, Line: line})
			}
		}
		m.EarlyMiss = m.EarlyMiss[:0]
	}
}

// attachL1Fill arranges for requestor req's L1 fill when the LLC-level MSHR
// completes, with a fill token naming the requestor and the L1. A prefetch
// probe attaches no waiter — the LLC fill itself is the whole effect — but
// still merges so the demand-conversion bookkeeping runs.
func (h *Hierarchy) attachL1Fill(req int, m *cache.MSHR, kind reqKind) {
	w := cache.Token{Req: int32(req)}
	switch kind {
	case kindData:
		w.Kind = cache.TokFillData
	case kindInstr:
		w.Kind = cache.TokFillInstr
	}
	h.llcMSHR.Merge(m, kind != kindPrefetch, w)
}

// fillL1 delivers a line into requestor req's appropriate L1 and completes
// its MSHR. fromMem marks fills whose data came from DRAM. Every caller —
// the LLC-hit fill event and the LLC MSHR completion waiters — carries the
// shared-domain line, mapped back to the requestor's local space here;
// outcomes delivered to the core use the local line, matching the L1-hit
// paths.
func (h *Hierarchy) fillL1(req int, line uint64, kind reqKind, fromMem bool) {
	f := &h.fr[req]
	line &^= reqBase(req)
	switch kind {
	case kindData:
		if _, ok := f.l1dMSHR.Lookup(line); !ok {
			return // e.g. duplicate fill after an inclusion invalidation
		}
		v := f.l1d.Insert(line, false)
		if v.Valid && v.Dirty {
			// Write back into the (inclusive) LLC; if it lost the line,
			// forward to memory.
			if !h.llc.MarkDirty(v.Addr | reqBase(req)) {
				h.writeDRAM(req, v.Addr|reqBase(req))
			}
		}
		m := f.l1dMSHR.Complete(line)
		early := m.FillFromMem // noteEarlyMiss already completed a no-wait owner
		if fromMem {
			m.FillFromMem = true
		}
		o := Outcome{When: h.now, Level: fillLevel(m), Line: line}
		for _, w := range m.Waiters {
			switch {
			case w.Kind == cache.TokStore:
				f.l1d.MarkDirty(line)
			case w.Kind == cache.TokLoadEarly && early:
				continue
			}
			f.sink.Done(w, o)
		}
		f.l1dMSHR.Recycle(m)
	case kindInstr:
		if _, ok := f.l1iMSHR.Lookup(line); !ok {
			return
		}
		f.l1i.Insert(line, false)
		m := f.l1iMSHR.Complete(line)
		if fromMem {
			m.FillFromMem = true
		}
		o := Outcome{When: h.now, Level: fillLevel(m), Line: line}
		for _, w := range m.Waiters {
			f.sink.Done(w, o)
		}
		f.l1iMSHR.Recycle(m)
	}
}

// fillLLC inserts a line arriving from DRAM and completes the LLC MSHR.
func (h *Hierarchy) fillLLC(line uint64, prefetched bool) {
	if _, ok := h.llcMSHR.Lookup(line); !ok {
		return
	}
	m := h.llcMSHR.Complete(line)
	// A prefetch that a demand merged into fills as a demand line.
	pfBit := prefetched && m.Prefetch
	v := h.llc.Insert(line, pfBit)
	if v.Valid {
		// Inclusion: drop the L1 copies, folding their dirtiness into the
		// victim. The victim's region names its owner — no other
		// requestor's L1 can hold it.
		dirty := v.Dirty
		if owner := int(v.Addr >> reqShift); owner < len(h.fr) {
			local := v.Addr &^ reqBase(owner)
			if _, d := h.fr[owner].l1d.Invalidate(local); d {
				dirty = true
			}
			h.fr[owner].l1i.Invalidate(local)
		}
		if dirty {
			h.writeDRAM(m.Req, v.Addr)
		}
		if pfBit && h.pf != nil {
			h.pf.NotePrefetchEviction(v.Addr)
		}
	}
	// The waiters are fill tokens: each moves the line on into one
	// requestor's L1.
	for _, w := range m.Waiters {
		rk := kindData
		if w.Kind == cache.TokFillInstr {
			rk = kindInstr
		}
		h.fillL1(int(w.Req), m.LineAddr, rk, true)
	}
	h.llcMSHR.Recycle(m)
}

// issuePrefetch injects a prefetch for line addr into the LLC miss path,
// attributed to the requestor whose access trained it. Prefetches are
// droppable: full structures silently discard them.
func (h *Hierarchy) issuePrefetch(req int, addr uint64) {
	line := h.llc.LineAddr(addr)
	if h.llc.Probe(line) {
		return
	}
	if _, ok := h.llcMSHR.Lookup(line); ok {
		return
	}
	if h.llcMSHR.FullNow() {
		return
	}
	m := h.llcMSHR.Allocate(line, true)
	m.Req = req
	h.DRAMReadsPrefetch++
	h.fr[req].st.DRAMReadsPrefetch++
	r := h.newReq(req, line, false)
	r.DoneR = h.prefetchDone
	h.enqueueDRAM(r)
}

func (h *Hierarchy) writeDRAM(req int, line uint64) {
	h.DRAMWrites++
	h.fr[req].st.DRAMWrites++
	h.enqueueDRAM(h.newReq(req, line, true))
}

func (h *Hierarchy) enqueueDRAM(r *dram.Request) {
	if h.dramWait.len() > 0 || !h.mem.Enqueue(r) {
		h.dramWait.push(r)
	}
}

// Drained reports whether no activity is pending anywhere in the hierarchy
// (for tests and snapshot gating).
func (h *Hierarchy) Drained() bool {
	if len(h.events) != 0 || h.dramWait.len() != 0 || len(h.llcRetry) != 0 ||
		h.arb.pending != 0 || h.mem.Pending() != 0 || h.llcMSHR.Outstanding() != 0 {
		return false
	}
	for i := range h.fr {
		if h.fr[i].l1dMSHR.Outstanding() != 0 || h.fr[i].l1iMSHR.Outstanding() != 0 {
			return false
		}
	}
	return true
}

// ResetStats zeroes all statistics counters (aggregate and per-requestor)
// while preserving cache, MSHR, DRAM and prefetcher state — used by
// harnesses to exclude warmup from measurements.
func (h *Hierarchy) ResetStats() {
	h.Loads, h.Stores, h.Fetches = 0, 0, 0
	h.LLCDemandAccesses, h.LLCDemandMisses = 0, 0
	h.DRAMReadsDemand, h.DRAMReadsPrefetch, h.DRAMWrites = 0, 0, 0
	for i := range h.fr {
		f := &h.fr[i]
		f.st = ReqStats{}
		for _, c := range []*cache.Cache{f.l1i, f.l1d} {
			c.Hits, c.Misses, c.Evictions = 0, 0, 0
		}
		for _, mf := range []*cache.MSHRFile{f.l1iMSHR, f.l1dMSHR} {
			mf.Allocs, mf.Merges, mf.Full = 0, 0, 0
		}
	}
	h.llc.Hits, h.llc.Misses, h.llc.Evictions = 0, 0, 0
	h.llcMSHR.Allocs, h.llcMSHR.Merges, h.llcMSHR.Full = 0, 0, 0
	h.mem.ResetStats()
	if h.pf != nil {
		h.pf.ResetStats()
	}
}

// Package dram models the DDR3 main memory of Table 1: two channels, one
// rank of eight banks per channel, 8KB rows, CAS 13.75ns, an 800 MHz data
// bus, bank conflicts, and FR-FCFS scheduling out of a 64-entry memory queue.
// All timing is expressed in core cycles (3.2 GHz), so 13.75ns ≈ 44 cycles
// and one 64-byte burst occupies the channel's data bus for 16 cycles.
//
// The model is intentionally at the "bank state machine + queue" level: row
// hits cost tCAS, closed banks cost tRCD+tCAS, conflicts cost tRP+tRCD+tCAS,
// and each channel's data bus serializes transfers. That reproduces the
// non-uniform access latency runahead exploits — latency rises steeply with
// queue depth and falls with row locality — without simulating DRAM command
// buses cycle by cycle.
//
// Requests live on per-bank FIFO lists rather than one flat per-channel
// queue, and each channel maintains a grant horizon — a lower bound on the
// next cycle anything could be granted, derived from bank readyAt times and
// the refresh schedule. Tick is O(channels) while the horizon has not
// arrived, and the grant scan only inspects banks that can fire, which is
// what lets the memory system report NextReady to the event-driven clock.
package dram

import (
	"fmt"

	"runaheadsim/internal/stats"
)

// never is the horizon value of a channel with nothing queued: no grant can
// ever happen until an Enqueue lowers it.
const never = int64(1<<63 - 1)

// Config holds DRAM geometry and timing (core cycles).
type Config struct {
	Channels        int
	BanksPerChannel int
	RowBytes        int
	LineBytes       int

	TCAS           int // column access, row already open
	TRCD           int // row activate
	TRP            int // precharge
	TransferCycles int // data bus occupancy per line
	QueueCap       int // total memory queue entries (Table 1: 64)
	// StarvationLimit escalates any request older than this many cycles to
	// highest priority, as real FR-FCFS controllers do — otherwise a stream
	// of row hits (e.g. from runahead racing down an array) can starve an
	// older conflicting request indefinitely.
	StarvationLimit int64

	// RefreshInterval (tREFI) and RefreshCycles (tRFC) model periodic
	// refresh: every RefreshInterval cycles each channel precharges all rows
	// and is unavailable for RefreshCycles. Zero disables refresh.
	RefreshInterval int64
	RefreshCycles   int64

	// Reference selects the preserved per-cycle scan: Tick runs the grant
	// scan on every channel every cycle instead of fast-pathing past
	// channels whose grant horizon has not arrived, reproducing the seed
	// controller's cost profile. Grant decisions, timing, and statistics are
	// identical either way — the horizon is a pure skip condition — which is
	// what lets the equivalence suite cross-check the two implementations.
	// The ClockTick reference kernel sets this; it never changes simulated
	// behavior, so snapshots exclude it from the configuration fingerprint.
	//simlint:nofingerprint reference-kernel speed knob; snapshots must interoperate across it
	Reference bool
}

// DefaultConfig matches Table 1 at a 3.2 GHz core clock.
func DefaultConfig() Config {
	return Config{
		Channels:        2,
		BanksPerChannel: 8,
		RowBytes:        8192,
		LineBytes:       64,
		TCAS:            44, // 13.75ns
		TRCD:            44,
		TRP:             44,
		TransferCycles:  16, // 64B over a 64-bit DDR bus at 800MHz, in 3.2GHz cycles
		QueueCap:        64,
		StarvationLimit: 280,
		RefreshInterval: 24960, // tREFI = 7.8us at 3.2 GHz
		RefreshCycles:   512,   // tRFC = 160ns
	}
}

// Request is one line-granularity DRAM access.
type Request struct {
	LineAddr uint64
	Write    bool
	Arrival  int64
	// Req identifies the requestor (core) the access serves. Single-requestor
	// hierarchies leave it 0; shared hierarchies stamp it so the controller
	// can keep per-requestor service statistics and hosts can attribute
	// grants to cores.
	Req int
	// Done is called at the cycle the last data beat leaves the bus. Nil is
	// allowed (writebacks usually don't need completion).
	Done func(cycle int64)
	// DoneR is the allocation-free flavor of Done: it receives the request
	// itself, so a caller issuing many requests can install one shared
	// method value instead of a fresh closure per request and recover its
	// context (LineAddr, Write) from the argument. When both are set, DoneR
	// wins.
	DoneR func(r *Request, cycle int64)

	channel, bank int
	row           uint64
	seq           uint64 // per-controller enqueue order; FR-FCFS age tie-break
}

type bank struct {
	openRow uint64
	hasOpen bool
	readyAt int64
	reqs    []*Request // pending requests in enqueue (seq) order; nil when none
}

// minBankReqs is the capacity of a fresh bank queue array.
const minBankReqs = 8

// Controller is the memory controller plus DRAM devices.
type Controller struct {
	cfg     Config
	banks   [][]bank
	busAt   []int64
	queued  int
	nextRef []int64
	// horizon[ch] is a lower bound on the next cycle a grant could occur on
	// the channel (never when nothing is queued). It may be conservatively
	// early — a wake-up that grants nothing just recomputes it — but is
	// never late: Tick fast-paths past a channel only while now < horizon.
	//simlint:nosnapshot recomputed from the queue on the first post-restore tick; the queue drains empty anyway
	horizon []int64
	seqCtr  uint64 //simlint:nosnapshot FR-FCFS arrival tiebreaker; meaningless with the queue drained empty
	// queuePool holds the backing arrays of emptied bank queues: a bank
	// takes one when it gains a request, so the arrays circulate among the
	// banks instead of each bank's growing separately.
	//simlint:nosnapshot host-side recycle pool; its contents never reach simulated state
	queuePool [][]*Request

	// OnGrant, when non-nil, is invoked as the controller grants each
	// request (the observability layer's DRAM-access event hook). rowHit
	// reports whether the access hit the bank's open row; the request itself
	// carries the line, direction, and requestor id.
	//simlint:nosnapshot host hook; the restoring hierarchy re-wires it
	OnGrant func(now int64, r *Request, rowHit bool)
	// Release, when non-nil, receives each request after its completion
	// callback has run. The memory hierarchy uses it to recycle requests
	// through a free pool instead of allocating one per miss.
	//simlint:nosnapshot host hook; the restoring hierarchy re-wires it
	Release func(r *Request)

	// Statistics.
	Refreshes    uint64
	Reads        uint64
	Writes       uint64
	RowHits      uint64
	RowMisses    uint64 // closed bank
	RowConflicts uint64 // wrong row open
	Rejects      uint64 // enqueue attempts while full
	Latency      *stats.Histogram

	// PerRequestor splits service statistics by Request.Req — the contention
	// picture a shared memory system reports per core. Sized by
	// EnsureRequestors (single-requestor controllers keep one slot); grants
	// from an unregistered requestor grow it on demand.
	PerRequestor []RequestorStats
	// BankGrants and BankConflicts count, per [channel][bank], granted
	// requests and grants that paid a row conflict — where the address
	// streams of competing requestors actually collide.
	BankGrants    [][]uint64
	BankConflicts [][]uint64

	// Simulator self-profiling (not simulated state, not snapshotted):
	// Tick outcomes per channel — how often the grant horizon let the fast
	// path skip a channel versus running the full grant scan. The reference
	// per-cycle kernel scans every tick, so the split measures exactly what
	// the horizon optimization buys on a given workload.
	HorizonSkips uint64 //simlint:nosnapshot simulator self-profiling, not simulated state
	GrantScans   uint64 //simlint:nosnapshot simulator self-profiling, not simulated state
}

// New returns an idle controller.
func New(cfg Config) *Controller {
	if cfg.Channels <= 0 || cfg.BanksPerChannel <= 0 || cfg.QueueCap <= 0 {
		panic("dram: invalid configuration")
	}
	c := &Controller{
		cfg:     cfg,
		banks:   make([][]bank, cfg.Channels),
		busAt:   make([]int64, cfg.Channels),
		nextRef: make([]int64, cfg.Channels),
		horizon: make([]int64, cfg.Channels),
		Latency: stats.NewHistogram(64, 16),
	}
	for i := range c.banks {
		c.banks[i] = make([]bank, cfg.BanksPerChannel)
		c.horizon[i] = never
		if cfg.RefreshInterval > 0 {
			// Stagger channel refreshes so they don't align.
			c.nextRef[i] = cfg.RefreshInterval * int64(i+1) / int64(cfg.Channels)
		}
	}
	c.PerRequestor = make([]RequestorStats, 1)
	c.BankGrants = make([][]uint64, cfg.Channels)
	c.BankConflicts = make([][]uint64, cfg.Channels)
	for i := range c.BankGrants {
		c.BankGrants[i] = make([]uint64, cfg.BanksPerChannel)
		c.BankConflicts[i] = make([]uint64, cfg.BanksPerChannel)
	}
	return c
}

// RequestorStats is one requestor's slice of the controller's service
// statistics. WaitCycles sums enqueue-to-last-data-beat latency over the
// requestor's granted requests, so WaitCycles/(Reads+Writes) is its mean
// memory latency under whatever contention the other requestors generate.
type RequestorStats struct {
	Reads        uint64
	Writes       uint64
	RowHits      uint64
	RowConflicts uint64
	WaitCycles   uint64
}

// EnsureRequestors grows the per-requestor statistics table to n slots. The
// shared memory hierarchy calls it at construction; it never shrinks.
func (c *Controller) EnsureRequestors(n int) {
	for len(c.PerRequestor) < n {
		c.PerRequestor = append(c.PerRequestor, RequestorStats{})
	}
}

// Config returns the controller configuration.
func (c *Controller) Config() Config { return c.cfg }

// mapAddr splits a line address into channel, bank and row. Consecutive
// lines interleave across channels, then banks. Higher address bits are
// XOR-folded into the channel and bank selection (permutation-based
// interleaving in the style of Zhang/Zhu/Zhang, MICRO 2000), as real memory
// controllers do — otherwise power-of-two strides camp on a single bank of a
// single channel and serialize on row conflicts.
func (c *Controller) mapAddr(lineAddr uint64) (ch, bk int, row uint64) {
	ln := lineAddr / uint64(c.cfg.LineBytes)
	ch = int((ln ^ (ln >> 1) ^ (ln >> 5) ^ (ln >> 9) ^ (ln >> 13)) % uint64(c.cfg.Channels))
	lnc := ln / uint64(c.cfg.Channels)
	linesPerRow := uint64(c.cfg.RowBytes / c.cfg.LineBytes)
	row = lnc / uint64(c.cfg.BanksPerChannel) / linesPerRow
	bk = int((lnc ^ (lnc >> 3) ^ (lnc >> 7) ^ (lnc >> 11) ^ row) % uint64(c.cfg.BanksPerChannel))
	return ch, bk, row
}

// Pending returns the number of queued (not yet granted) requests.
func (c *Controller) Pending() int { return c.queued }

// Enqueue adds a request to the memory queue. It reports false (and counts a
// rejection) when the 64-entry queue is full; the caller must retry later.
func (c *Controller) Enqueue(r *Request) bool {
	if c.queued >= c.cfg.QueueCap {
		c.Rejects++
		return false
	}
	r.channel, r.bank, r.row = c.mapAddr(r.LineAddr)
	r.seq = c.seqCtr
	c.seqCtr++
	bk := &c.banks[r.channel][r.bank]
	if bk.reqs == nil {
		bk.reqs = c.takeQueue()
	}
	bk.reqs = append(bk.reqs, r)
	c.queued++
	// The new request could be granted as soon as its bank is ready, and no
	// later than the channel's next refresh boundary (a refresh pushes bank
	// readyAt, so the horizon must not sleep past it while work is queued).
	if bk.readyAt < c.horizon[r.channel] {
		c.horizon[r.channel] = bk.readyAt
	}
	if c.cfg.RefreshInterval > 0 && c.nextRef[r.channel] < c.horizon[r.channel] {
		c.horizon[r.channel] = c.nextRef[r.channel]
	}
	return true
}

// Tick advances the controller to cycle now, granting at most one request per
// channel per cycle under FR-FCFS: row-hit reads first, then any ready read,
// then row-hit writes, then any ready write; age breaks ties. Channels whose
// grant horizon has not arrived are skipped after a one-compare refresh
// check, so an idle or blocked controller ticks in O(channels).
//
//simlint:hotpath
func (c *Controller) Tick(now int64) {
	for ch := range c.banks {
		if c.cfg.RefreshInterval > 0 && now >= c.nextRef[ch] {
			c.refreshCatchUp(ch, now)
		}
		if !c.cfg.Reference && now < c.horizon[ch] {
			c.HorizonSkips++
			continue
		}
		c.GrantScans++
		c.grantScan(ch, now)
	}
}

// refreshCatchUp fires every refresh due at or before now, each at its
// scheduled cycle: when Tick runs every cycle this fires exactly at tREFI
// boundaries, and when the clock warps over an idle stretch the replay
// leaves bank state and counters exactly as the per-cycle run would have
// (precharge-all, readyAt = max(readyAt, scheduled + tRFC)). A single-fire
// check here would silently drop refreshes across large now jumps.
func (c *Controller) refreshCatchUp(ch int, now int64) {
	for now >= c.nextRef[ch] {
		at := c.nextRef[ch]
		c.Refreshes++
		c.nextRef[ch] += c.cfg.RefreshInterval
		for b := range c.banks[ch] {
			bk := &c.banks[ch][b]
			bk.hasOpen = false
			if r := at + c.cfg.RefreshCycles; r > bk.readyAt {
				bk.readyAt = r
			}
		}
	}
	c.recomputeHorizon(ch)
}

// grantScan picks and grants the best FR-FCFS candidate on the channel. Only
// banks that are ready this cycle are inspected; within the ready set the
// winner is the lowest (class, enqueue seq) pair, which reproduces exactly
// the old flat-queue scan (queue position order is enqueue order).
//
//simlint:hotpath
func (c *Controller) grantScan(ch int, now int64) {
	var best *Request
	bestBank, bestIdx := -1, -1
	bestClass := 5
	bestSeq := ^uint64(0)
	for b := range c.banks[ch] {
		bk := &c.banks[ch][b]
		if len(bk.reqs) == 0 || bk.readyAt > now {
			continue
		}
		for i, r := range bk.reqs {
			hit := bk.hasOpen && bk.openRow == r.row
			class := 0
			switch {
			case c.cfg.StarvationLimit > 0 && now-r.Arrival > c.cfg.StarvationLimit:
				class = 0 // starving: jump the row-hit queue
			case hit && !r.Write:
				class = 1
			case !r.Write:
				class = 2
			case hit:
				class = 3
			default:
				class = 4
			}
			if class < bestClass || (class == bestClass && r.seq < bestSeq) {
				best, bestBank, bestIdx = r, b, i
				bestClass, bestSeq = class, r.seq
			}
		}
	}
	if best == nil {
		// Woke at a stale horizon (e.g. a refresh pushed readyAt since it
		// was computed); tighten it so the fast path resumes.
		c.recomputeHorizon(ch)
		return
	}
	bk := &c.banks[ch][bestBank]
	n := len(bk.reqs) - 1
	copy(bk.reqs[bestIdx:], bk.reqs[bestIdx+1:])
	bk.reqs[n] = nil // don't retain the granted request in the backing array
	bk.reqs = bk.reqs[:n]
	if n == 0 {
		c.queuePool = append(c.queuePool, bk.reqs)
		bk.reqs = nil
	}
	c.queued--
	c.grant(best, now)
	c.recomputeHorizon(ch)
}

// takeQueue returns an empty bank queue array, pooled when one is free.
func (c *Controller) takeQueue() []*Request {
	if n := len(c.queuePool); n > 0 {
		q := c.queuePool[n-1]
		c.queuePool[n-1] = nil
		c.queuePool = c.queuePool[:n-1]
		return q
	}
	return make([]*Request, 0, minBankReqs)
}

// recomputeHorizon derives the channel's grant horizon from ground truth:
// the earliest readyAt over banks with queued work, clamped by the next
// refresh boundary while anything is pending.
//
//simlint:hotpath
func (c *Controller) recomputeHorizon(ch int) {
	hz := never
	pending := false
	for b := range c.banks[ch] {
		bk := &c.banks[ch][b]
		if len(bk.reqs) == 0 {
			continue
		}
		pending = true
		if bk.readyAt < hz {
			hz = bk.readyAt
		}
	}
	if pending && c.cfg.RefreshInterval > 0 && c.nextRef[ch] < hz {
		hz = c.nextRef[ch]
	}
	c.horizon[ch] = hz
}

// NextReady returns the earliest cycle strictly after now at which any
// channel could grant a request — the controller's contribution to the
// memory system's event horizon. It is a safe lower bound (never later than
// the true next grant; a conservatively early value only costs a no-op
// wake-up) and returns never (MaxInt64) when nothing is queued: refreshes on
// an idle controller are replayed deterministically by refreshCatchUp and
// need no wake-up of their own.
func (c *Controller) NextReady(now int64) int64 {
	next := never
	for _, hz := range c.horizon {
		if hz < next {
			next = hz
		}
	}
	if next <= now {
		return now + 1
	}
	return next
}

// CheckInvariants verifies the derived scheduling state against ground
// truth: per-bank FIFO seq order and address mapping, the queued-count
// accounting, and — the load-bearing direction — that no channel's horizon
// is later than the earliest cycle a grant could actually occur (a late
// horizon would make the fast path sleep through work forever).
func (c *Controller) CheckInvariants() error {
	total := 0
	for ch := range c.banks {
		earliest := never
		pending := false
		for b := range c.banks[ch] {
			bk := &c.banks[ch][b]
			for i, r := range bk.reqs {
				if r == nil {
					return fmt.Errorf("dram: channel %d bank %d holds a nil request at %d", ch, b, i)
				}
				if r.channel != ch || r.bank != b {
					return fmt.Errorf("dram: request %#x mapped to (%d,%d) but queued on (%d,%d)",
						r.LineAddr, r.channel, r.bank, ch, b)
				}
				if i > 0 && r.seq <= bk.reqs[i-1].seq {
					return fmt.Errorf("dram: channel %d bank %d FIFO order broken at %d (seq %d after %d)",
						ch, b, i, r.seq, bk.reqs[i-1].seq)
				}
				total++
			}
			if len(bk.reqs) > 0 {
				pending = true
				if bk.readyAt < earliest {
					earliest = bk.readyAt
				}
			}
		}
		if pending {
			if c.cfg.RefreshInterval > 0 && c.nextRef[ch] < earliest {
				earliest = c.nextRef[ch]
			}
			if c.horizon[ch] > earliest {
				return fmt.Errorf("dram: channel %d horizon %d is later than the true next grant bound %d",
					ch, c.horizon[ch], earliest)
			}
		}
	}
	if total != c.queued {
		return fmt.Errorf("dram: queued count %d, but %d requests on bank lists", c.queued, total)
	}
	return nil
}

func (c *Controller) grant(r *Request, now int64) {
	b := &c.banks[r.channel][r.bank]
	rowHit := b.hasOpen && b.openRow == r.row
	if c.OnGrant != nil {
		c.OnGrant(now, r, rowHit)
	}
	c.EnsureRequestors(r.Req + 1)
	rs := &c.PerRequestor[r.Req]
	c.BankGrants[r.channel][r.bank]++
	var access int
	switch {
	case rowHit:
		access = c.cfg.TCAS
		c.RowHits++
		rs.RowHits++
	case !b.hasOpen:
		access = c.cfg.TRCD + c.cfg.TCAS
		c.RowMisses++
	default:
		access = c.cfg.TRP + c.cfg.TRCD + c.cfg.TCAS
		c.RowConflicts++
		rs.RowConflicts++
		c.BankConflicts[r.channel][r.bank]++
	}
	// Banks work in parallel; only the data transfer serializes on the
	// channel's bus.
	dataAt := now + int64(access)
	transferStart := dataAt
	if c.busAt[r.channel] > transferStart {
		transferStart = c.busAt[r.channel]
	}
	finish := transferStart + int64(c.cfg.TransferCycles)
	b.openRow, b.hasOpen = r.row, true
	b.readyAt = dataAt
	c.busAt[r.channel] = finish
	if r.Write {
		c.Writes++
		rs.Writes++
	} else {
		c.Reads++
		rs.Reads++
	}
	rs.WaitCycles += uint64(finish - r.Arrival)
	c.Latency.Observe(uint64(finish - r.Arrival))
	if r.DoneR != nil {
		r.DoneR(r, finish)
	} else if r.Done != nil {
		r.Done(finish)
	}
	if c.Release != nil {
		c.Release(r)
	}
}

// Activates returns the number of row activations performed (for the energy
// model: every miss or conflict activates a row).
func (c *Controller) Activates() uint64 { return c.RowMisses + c.RowConflicts }

// ResetStats zeroes the statistics counters, preserving bank and queue state.
func (c *Controller) ResetStats() {
	c.Reads, c.Writes = 0, 0
	c.RowHits, c.RowMisses, c.RowConflicts, c.Rejects = 0, 0, 0, 0
	c.Latency = stats.NewHistogram(64, 16)
	for i := range c.PerRequestor {
		c.PerRequestor[i] = RequestorStats{}
	}
	for ch := range c.BankGrants {
		clear(c.BankGrants[ch])
		clear(c.BankConflicts[ch])
	}
}

// Package core implements the simulated processor: a 4-wide out-of-order
// pipeline with a 192-entry reorder buffer (Table 1), traditional runahead
// execution, and the paper's contribution — the runahead buffer with
// dependence-chain generation (Algorithm 1), a chain cache, and the hybrid
// policy (Figure 8).
package core

import (
	"fmt"

	"runaheadsim/internal/bpred"
	"runaheadsim/internal/memsys"
)

// Mode selects the runahead scheme, matching the systems evaluated in
// Section 6.
type Mode uint8

// Runahead modes.
const (
	// ModeNone never enters runahead (the baseline).
	ModeNone Mode = iota
	// ModeTraditional is classic out-of-order runahead: the front-end keeps
	// fetching down the predicted path while the core would be stalled.
	ModeTraditional
	// ModeBuffer is the runahead buffer without a chain cache: a dependence
	// chain is generated from the ROB on every entry.
	ModeBuffer
	// ModeBufferCC adds the two-entry chain cache.
	ModeBufferCC
	// ModeHybrid switches between the runahead buffer (with chain cache) and
	// traditional runahead per Figure 8.
	ModeHybrid
	// ModeAdaptive extends the hybrid policy with feedback (an extension
	// beyond the paper, in the spirit of Section 4.5's "hybrid policies"):
	// per blocking PC, it remembers whether past buffer intervals actually
	// generated misses, and demotes chronically unproductive PCs to
	// traditional runahead even when their chains pass the Figure 8 checks.
	ModeAdaptive
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case ModeNone:
		return "baseline"
	case ModeTraditional:
		return "runahead"
	case ModeBuffer:
		return "runahead-buffer"
	case ModeBufferCC:
		return "runahead-buffer+cc"
	case ModeHybrid:
		return "hybrid"
	case ModeAdaptive:
		return "adaptive-hybrid"
	default:
		return "unknown"
	}
}

// UsesBuffer reports whether the mode can execute from the runahead buffer.
func (m Mode) UsesBuffer() bool {
	return m == ModeBuffer || m == ModeBufferCC || m == ModeHybrid || m == ModeAdaptive
}

// SchedulerKind selects the issue-scheduler implementation. Both produce
// identical simulated behavior — cycle counts, statistics, and snapshot
// bytes — which the lockstep equivalence tests enforce; only simulator speed
// differs.
type SchedulerKind uint8

const (
	// SchedEvent is the event-driven wakeup/select scheduler (sched.go):
	// per-register waiter lists, ready/unknown-store/load bitmaps over ROB
	// slots, and a store-address index. The default.
	SchedEvent SchedulerKind = iota
	// SchedScan is the reference implementation: re-scan the ROB every cycle
	// and walk older stores per load. Kept for differential testing.
	SchedScan
)

// String implements fmt.Stringer.
func (k SchedulerKind) String() string {
	switch k {
	case SchedEvent:
		return "event"
	case SchedScan:
		return "scan"
	default:
		return "unknown"
	}
}

// ClockMode selects how the simulation clock advances. Both modes produce
// identical simulated behavior — final cycle count, statistics, and snapshot
// bytes — which the clock-warp lockstep tests enforce; only simulator speed
// differs.
type ClockMode uint8

const (
	// ClockWarp fast-forwards the clock across provably idle stretches
	// (warp.go): when every pipeline stage is quiescent at the end of a
	// cycle, the clock jumps to the next cycle at which anything can happen
	// (memory-system event horizon, core event wheel, runahead retry,
	// front-end timers), attributing the skipped span to the same stall
	// buckets the per-cycle loop would have. The default.
	ClockWarp ClockMode = iota
	// ClockTick advances one cycle at a time — the reference the equivalence
	// tests compare against.
	ClockTick
)

// String implements fmt.Stringer.
func (m ClockMode) String() string {
	switch m {
	case ClockWarp:
		return "warp"
	case ClockTick:
		return "tick"
	default:
		return "unknown"
	}
}

// Config holds every core parameter. DefaultConfig reproduces Table 1.
type Config struct {
	// Pipeline widths (Table 1: 4-wide issue).
	FetchWidth, DecodeWidth, RenameWidth, IssueWidth, CommitWidth int
	// Window sizes (Table 1: 192-entry ROB, 92-entry reservation station).
	ROBSize, RSSize int
	LQSize, SQSize  int
	StoreBufSize    int
	// NumPhysRegs includes the 64 architectural registers.
	NumPhysRegs int
	// DecodeDepth is the fetch-to-rename pipe depth in cycles; it sets the
	// front-end part of the misprediction penalty.
	DecodeDepth int
	// RedirectPenalty is the extra bubble after a branch resolves wrong.
	RedirectPenalty int
	// MemPorts bounds data-cache accesses per cycle (Table 1: 2 ports).
	MemPorts int

	// Scheduler selects the issue-scheduler implementation (simulator speed
	// only; simulated behavior is identical across kinds). The zero value is
	// SchedEvent. Excluded from the snapshot configuration fingerprint so
	// snapshots from either kind interoperate.
	//simlint:nofingerprint simulator speed knob; snapshots must interoperate across scheduler kinds
	Scheduler SchedulerKind

	// ClockMode selects how the simulation clock advances (simulator speed
	// only; simulated behavior is identical across modes). The zero value is
	// ClockWarp. Excluded from the snapshot configuration fingerprint so
	// snapshots from either mode interoperate.
	//simlint:nofingerprint simulator speed knob; snapshots must interoperate across clock modes
	ClockMode ClockMode

	// Runahead policy.
	Mode Mode
	// Enhancements enables the two ISCA'05 runahead-efficiency policies
	// (Section 4.6): suppress stale-miss entries and overlapping intervals.
	Enhancements bool
	// EnhAgeCycles implements the "issued to memory less than 250
	// instructions ago" rule in cycle terms: an entry is suppressed when the
	// blocking line's underlying memory request is older than this, because
	// the data is about to arrive and the interval would be too short to pay
	// for itself.
	EnhAgeCycles int64

	// Runahead buffer parameters (Table 1 / Section 5).
	RunaheadBufferSize  int // 32 uops
	MaxChainLength      int // 32 uops
	ChainCacheEntries   int // 2 chains
	SRSLSize            int // 16-entry source register search list
	RegSearchesPerCycle int // 2 destination-CAM searches per cycle
	// RunaheadCache geometry (Table 1: 512B, 4-way, 8B lines).
	RACacheBytes, RACacheWays, RACacheLineBytes int

	// DepTrack enables the dependence-walk instrumentation behind Figures
	// 2-5 (it costs simulation time, not simulated cycles).
	DepTrack bool

	BPred bpred.Config
	Mem   memsys.Config

	// WatchdogCycles aborts the simulation when no instruction commits (or
	// pseudo-retires) for this many cycles — a simulator deadlock, not a
	// workload property. Zero disables.
	WatchdogCycles int64

	// FlightRecorderEvents sizes the always-on flight recorder: a ring of
	// the most recent coarse trace events (runahead transitions, LLC misses,
	// DRAM grants, occupancy samples) dumped as JSONL when a run dies. Zero
	// means the default (512); negative disables the recorder. Simulator
	// observability only — it never affects simulated behavior — so it is
	// excluded from the snapshot configuration fingerprint.
	//simlint:nofingerprint observability ring size; never affects simulated behavior
	FlightRecorderEvents int
}

// DefaultConfig returns the Table 1 machine with runahead disabled.
func DefaultConfig() Config {
	return Config{
		FetchWidth:  4,
		DecodeWidth: 4,
		RenameWidth: 4,
		IssueWidth:  4,
		CommitWidth: 4,

		ROBSize:      192,
		RSSize:       92,
		LQSize:       64,
		SQSize:       32,
		StoreBufSize: 16,
		NumPhysRegs:  320,

		DecodeDepth:     3,
		RedirectPenalty: 3,
		MemPorts:        2,

		Mode:         ModeNone,
		Enhancements: false,
		EnhAgeCycles: 400,

		RunaheadBufferSize:  32,
		MaxChainLength:      32,
		ChainCacheEntries:   2,
		SRSLSize:            16,
		RegSearchesPerCycle: 2,
		RACacheBytes:        512,
		RACacheWays:         4,
		RACacheLineBytes:    8,

		DepTrack: false,

		BPred: bpred.DefaultConfig(),
		Mem:   memsys.DefaultConfig(),

		WatchdogCycles: 2_000_000,
	}
}

// Validate checks the configuration for values the pipeline cannot operate
// with. New panics on an invalid configuration — a construction bug, not a
// runtime condition.
func (c Config) Validate() error {
	type check struct {
		ok  bool
		msg string
	}
	checks := []check{
		{c.FetchWidth >= 1 && c.DecodeWidth >= 1 && c.RenameWidth >= 1 && c.IssueWidth >= 1 && c.CommitWidth >= 1,
			"pipeline widths must be at least 1"},
		{c.ROBSize >= 4, "ROB must have at least 4 entries"},
		{c.RSSize >= 1 && c.RSSize <= c.ROBSize, "reservation station must fit within the ROB"},
		{c.LQSize >= 1 && c.SQSize >= 1 && c.StoreBufSize >= 1, "load/store queues must be non-empty"},
		{c.NumPhysRegs >= 64+c.ROBSize/2, "too few physical registers for the window"},
		{c.MemPorts >= 1, "at least one data cache port"},
		{c.RunaheadBufferSize >= 1 && c.MaxChainLength >= 1, "runahead buffer and chain cap must be positive"},
		{c.MaxChainLength <= c.RunaheadBufferSize, "chains must fit in the runahead buffer"},
		{c.ChainCacheEntries >= 1, "chain cache needs at least one entry"},
		{c.SRSLSize >= 1 && c.RegSearchesPerCycle >= 1, "chain generation needs search capacity"},
		{c.DecodeDepth >= 0 && c.RedirectPenalty >= 0, "pipeline depths cannot be negative"},
		// Held loads retry where an event scheduled one cycle out by the
		// previous event phase would fire (cycleBody); an L1 hit completing
		// at latency 1 would be such an event, firing after them instead of
		// in its turn.
		{c.Mem.L1Latency >= 2, "L1 latency must be at least 2 cycles"},
	}
	for _, ch := range checks {
		if !ch.ok {
			return fmt.Errorf("core: invalid configuration: %s", ch.msg)
		}
	}
	return nil
}

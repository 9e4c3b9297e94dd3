// Package twin is the analytical interval-model twin of the detailed
// simulator: a first-order performance model that predicts cycles, IPC,
// CPI-stack shares, and energy for a (workload, configuration) pair in
// microseconds instead of seconds.
//
// The model follows the classic interval-analysis decomposition — the same
// terms the detailed simulator's CPI stack attributes cycles to:
//
//	cycles ≈ θ·[ ideal, taken-branches, mispredict-intervals, LLC-miss
//	             intervals, DRAM-miss intervals (MLP-adjusted), serialized
//	             DRAM chains, runahead coverage, bias ]
//
// Inputs come from one interpreter-speed profiling pass per workload (an
// observer on prog.Interp.Run driving the shared functional cache model
// memsys.Tags, the real branch predictor trained by bpred's Train, and a
// dataflow virtual schedule), plus structural machine parameters extracted
// from the core configuration. The per-term coefficients θ are *fitted*
// against detailed runs by the calibration loop (calibrate.go) rather than
// derived from first principles: calibration absorbs everything the
// first-order terms cannot see (issue contention, partial overlap,
// prefetch-like wrong-path effects), and the residual it cannot absorb is
// reported as per-workload/per-config MAPE and Pearson-r. The per-workload
// MAPE is the uncertainty the screening tier promotes on.
//
// Known limits, by construction: the profile is configuration-independent,
// so configurations that change cache contents or miss counts (hardware
// prefetchers, runahead-buffer size sweeps, DepTrack instrumentation) are
// predicted with their runahead mode's coefficients and must be promoted to
// detailed simulation when their numbers matter.
package twin

import (
	"runaheadsim/internal/bpred"
	"runaheadsim/internal/core"
	"runaheadsim/internal/memsys"
)

// Machine holds the structural parameters the model terms are built from.
// They are extracted from a core configuration by MachineFrom, never set by
// calibration: the coefficients scale the terms, the machine sizes them.
type Machine struct {
	IssueWidth int
	ROBSize    int

	// BranchPenalty is the fetch-to-rename refill depth plus the redirect
	// bubble — the cycles one mispredict interval costs at minimum.
	BranchPenalty int64

	// Load-to-use latencies by the deepest level an access reaches.
	L1Lat, LLCLat, DRAMLat int64

	Mem   memsys.Config // cache geometry of the functional tag walk
	BPred bpred.Config
}

// MachineFrom extracts the model-relevant structural parameters from a full
// core configuration.
func MachineFrom(cfg core.Config) Machine {
	onChip := int64(cfg.Mem.L1Latency + cfg.Mem.LLCLatency)
	return Machine{
		IssueWidth:    cfg.IssueWidth,
		ROBSize:       cfg.ROBSize,
		BranchPenalty: int64(cfg.DecodeDepth+cfg.RedirectPenalty) + 1,
		L1Lat:         int64(cfg.Mem.L1Latency),
		LLCLat:        onChip,
		DRAMLat:       onChip + int64(cfg.Mem.DRAM.TRCD+cfg.Mem.DRAM.TCAS+cfg.Mem.DRAM.TransferCycles),
		Mem:           cfg.Mem,
		BPred:         cfg.BPred,
	}
}

// reach is how many uops past a blocking miss a runahead interval can
// plausibly pre-execute: the window the ROB already holds plus what the
// front end can supply during one DRAM access.
func (m Machine) reach() int64 {
	return int64(m.ROBSize) + int64(m.IssueWidth)*m.DRAMLat
}

package twin

import (
	"fmt"
	"math"

	"runaheadsim/internal/core"
)

// Feature indexes of the cycle model. Each feature is an interval term in
// cycle units (or a count whose per-event cost the coefficient carries), so
// a fitted coefficient near 1.0 means "this term costs what first-order
// interval analysis says it should".
const (
	// FIdeal: stall-free cycles — the larger of the issue-width bound
	// (uops/width) and the dataflow critical path with DRAM capped at LLC
	// latency.
	FIdeal = iota
	// FTaken: taken-branch count (fetch-bubble intervals).
	FTaken
	// FMispred: mispredict count times the branch penalty (recovery
	// intervals).
	FMispred
	// FLLC: L1-miss/LLC-hit loads times the LLC latency (short memory
	// intervals, mostly hidden by the window — the coefficient learns how
	// much leaks through).
	FLLC
	// FDRAM: DRAM stall clusters times the DRAM latency (MLP-adjusted
	// full-window stalls).
	FDRAM
	// FDRAMSerial: the dataflow critical path's excess under full DRAM
	// latency — dependent miss chains that MLP cannot overlap.
	FDRAMSerial
	// FCov: runahead-coverable misses times the DRAM latency (zero for the
	// baseline; expected negative coefficient — covered stalls vanish).
	FCov
	// FBias: committed uops / 1000 — a per-kilouop bias absorbing costs
	// proportional to progress that no other term carries.
	FBias

	NumFeatures
)

// Energy-feature indexes. The slot ECycles is filled by the model with its
// own predicted cycles, so energy inherits the cycle model's accuracy.
const (
	EUops = iota
	EL1
	ELLC
	EDRAM
	ECycles
	ERA

	NumEnergyFeatures
)

// Point is one (workload, configuration) cell of the sweep matrix: the
// feature vectors plus — when it is a calibration point — the detailed
// simulator's observed targets.
type Point struct {
	Bench string
	Class string // workload.Class string: "low" | "medium" | "high"
	Mode  core.Mode

	X  []float64 // cycle features (NumFeatures)
	EX []float64 // energy features (NumEnergyFeatures, ECycles slot zero)

	Uops      uint64
	DRAMLoads uint64

	// Calibration targets (zero for screening points).
	DetCycles   float64
	DetIPC      float64
	DetEnergyUJ float64
}

// PointFrom builds the screening/calibration point for one workload profile
// under one runahead mode.
func PointFrom(wp *WorkloadProfile, m Machine, mode core.Mode, class string) Point {
	w := float64(m.IssueWidth)
	ideal := float64(wp.Mix.Uops) / w
	if cp := float64(wp.CPNoDRAM); cp > ideal {
		ideal = cp
	}
	x := make([]float64, NumFeatures)
	x[FIdeal] = ideal
	x[FTaken] = float64(wp.Mix.TakenBranches)
	x[FMispred] = float64(wp.Mispredicts) * float64(m.BranchPenalty)
	x[FLLC] = float64(wp.LLCHitLoads) * float64(m.LLCLat)
	x[FDRAM] = float64(wp.Clusters) * float64(m.DRAMLat)
	if ser := float64(wp.CPFull - wp.CPNoDRAM); ser > 0 {
		x[FDRAMSerial] = ser
	}
	if mode != core.ModeNone {
		cov := wp.CoveredAny
		if mode.UsesBuffer() {
			cov = wp.CoveredChain
		}
		x[FCov] = float64(cov) * float64(m.DRAMLat)
	}
	x[FBias] = float64(wp.Mix.Uops) / 1000

	ex := make([]float64, NumEnergyFeatures)
	ex[EUops] = float64(wp.Mix.Uops)
	ex[EL1] = float64(wp.Mix.Loads + wp.Mix.Stores)
	ex[ELLC] = float64(wp.LLCHitLoads + wp.DRAMLoads + wp.LLCHitStores + wp.DRAMStores)
	ex[EDRAM] = float64(wp.DRAMLoads + wp.DRAMStores + wp.Writebacks)
	if mode != core.ModeNone {
		ex[ERA] = float64(wp.Clusters)
	}

	return Point{
		Bench:     wp.Bench,
		Class:     class,
		Mode:      mode,
		X:         x,
		EX:        ex,
		Uops:      wp.Mix.Uops,
		DRAMLoads: wp.DRAMLoads,
	}
}

// ClassGroup maps a workload class to a coefficient group: the small-
// footprint kernels ("low") behave differently enough from the memory-
// intensive set ("medium"/"high") to deserve their own fit, and each side
// keeps enough points for a stable regression.
func ClassGroup(class string) string {
	if class == "low" {
		return "low"
	}
	return "mh"
}

// Group is one fitted coefficient set: one runahead mode within one class
// group.
type Group struct {
	Mode       core.Mode `json:"mode"`
	ClassGroup string    `json:"class_group"`

	Theta       []float64 `json:"theta"`
	EnergyTheta []float64 `json:"energy_theta"`
	Points      int       `json:"points"`
}

// BenchScale is one workload's calibration anchor: the geometric-mean ratio
// of detailed to model-predicted cycles (and energy) across every calibrated
// configuration of that workload. One scale is shared by all modes, so
// between-config deltas — what screening ranks on — stay purely structural;
// the anchor only absorbs workload-level costs the features cannot see
// (e.g. bandwidth contention of a dense store stream). Unknown workloads
// predict with scale 1 and surface as maximally uncertain.
type BenchScale struct {
	Bench  string  `json:"bench"`
	Cycles float64 `json:"cycles"`
	Energy float64 `json:"energy"`
}

// Model is a fitted twin: coefficient groups plus per-workload anchors and
// the calibration scores, keyed to one machine by config fingerprint.
type Model struct {
	Version     int    `json:"version"`
	Fingerprint uint64 `json:"-"`
	MeasureUops uint64 `json:"measure_uops"`
	IssueWidth  int    `json:"issue_width"`

	Groups []Group      `json:"groups"`
	Scales []BenchScale `json:"scales"`
	Scores Scores       `json:"scores"`
}

// scaleFor returns the workload's calibration anchor (1, 1 when unknown).
func (m *Model) scaleFor(bench string) (cycles, energy float64) {
	for _, s := range m.Scales {
		if s.Bench == bench {
			return s.Cycles, s.Energy
		}
	}
	return 1, 1
}

// group resolves the coefficient set for (mode, class): the mode's class
// group, else its pooled "all" group. ModeAdaptive is never calibrated; it
// borrows the coefficients of ModeHybrid, the policy it extends.
func (m *Model) group(mode core.Mode, class string) *Group {
	if mode == core.ModeAdaptive {
		mode = core.ModeHybrid
	}
	cg := ClassGroup(class)
	var all *Group
	for i := range m.Groups {
		g := &m.Groups[i]
		if g.Mode != mode {
			continue
		}
		if g.ClassGroup == cg {
			return g
		}
		if g.ClassGroup == "all" {
			all = g
		}
	}
	return all
}

// Prediction is the twin's answer for one point: everything a harness
// Result reports, in model form.
type Prediction struct {
	Cycles      int64
	IPC         float64
	CPI         [core.NumCPIBuckets]int64
	MPKI        float64
	MemStallPct float64
	EnergyUJ    float64
}

// Predict evaluates the model on one point. A point with no DRAM stall
// cluster never enters runahead, so every mode predicts it with the
// baseline's coefficients: its deltas against the baseline are exactly 0,
// as they are in detailed simulation.
func (m *Model) Predict(pt Point) (Prediction, error) {
	mode := pt.Mode
	if pt.X[FDRAM] == 0 {
		mode = core.ModeNone
	}
	g := m.group(mode, pt.Class)
	if g == nil {
		return Prediction{}, fmt.Errorf("twin: no coefficient group for mode %s (calibrate first)", mode)
	}
	terms := make([]float64, NumFeatures)
	var cycles float64
	for j := 0; j < NumFeatures; j++ {
		terms[j] = g.Theta[j] * pt.X[j]
		cycles += terms[j]
	}
	sCyc, sEn := m.scaleFor(pt.Bench)
	if sCyc > 0 {
		cycles *= sCyc
	}
	if cycles < 1 {
		cycles = 1
	}

	var p Prediction
	p.Cycles = int64(math.Round(cycles))
	if p.Cycles < 1 {
		p.Cycles = 1
	}
	p.IPC = float64(pt.Uops) / float64(p.Cycles)
	if pt.Uops > 0 {
		p.MPKI = 1000 * float64(pt.DRAMLoads) / float64(pt.Uops)
	}

	// CPI-stack shares: map the fitted terms onto the detailed simulator's
	// buckets, clamp the physically-nonnegative ones, and rescale so the
	// buckets sum to the predicted cycles (the invariant detailed Stats
	// obey).
	w := m.IssueWidth
	if w < 1 {
		w = 4
	}
	base := float64(pt.Uops) / float64(w) // never exceeds X[FIdeal] by construction
	shares := [core.NumCPIBuckets]float64{}
	shares[core.CPIBase] = base
	shares[core.CPIOther] = clamp0(terms[FIdeal] + terms[FBias] - base)
	shares[core.CPIFrontend] = clamp0(terms[FTaken])
	shares[core.CPIBranchRecovery] = clamp0(terms[FMispred])
	shares[core.CPILLCMiss] = clamp0(terms[FLLC])
	shares[core.CPIDRAM] = clamp0(terms[FDRAM] + terms[FDRAMSerial] + terms[FCov])
	var sum float64
	for _, s := range shares {
		sum += s
	}
	if sum <= 0 {
		shares[core.CPIBase] = 1
		sum = 1
	}
	scale := cycles / sum
	var acc int64
	maxB, maxV := core.CPIBase, int64(-1)
	for b := core.CPIBucket(0); b < core.NumCPIBuckets; b++ {
		v := int64(math.Round(shares[b] * scale))
		if v < 0 {
			v = 0
		}
		p.CPI[b] = v
		acc += v
		if v > maxV {
			maxB, maxV = b, v
		}
	}
	p.CPI[maxB] += p.Cycles - acc // rounding remainder
	if p.CPI[maxB] < 0 {
		p.CPI[maxB] = 0
	}
	p.MemStallPct = 100 * float64(p.CPI[core.CPIDRAM]) / float64(p.Cycles)

	ex := make([]float64, NumEnergyFeatures)
	copy(ex, pt.EX)
	ex[ECycles] = float64(p.Cycles)
	for j := 0; j < NumEnergyFeatures; j++ {
		p.EnergyUJ += g.EnergyTheta[j] * ex[j]
	}
	if sEn > 0 {
		p.EnergyUJ *= sEn
	}
	if p.EnergyUJ < 0 {
		p.EnergyUJ = 0
	}
	return p, nil
}

func clamp0(v float64) float64 {
	if v < 0 {
		return 0
	}
	return v
}

package twin

import (
	"runaheadsim/internal/bpred"
	"runaheadsim/internal/isa"
	"runaheadsim/internal/memsys"
	"runaheadsim/internal/prog"
)

// WorkloadProfile is everything the model needs to know about one workload,
// gathered in a single interpreter-speed pass: the instruction mix, the
// functional cache/branch-predictor behavior over the measured region, the
// DRAM-miss cluster structure (the MLP the detailed machine can exploit),
// how much of it a runahead interval could cover, and the dataflow critical
// path (which separates dependent miss chains from independent misses).
//
// The pass replays the same warmup the detailed harness runs before
// ResetStats, so the measured windows line up uop-for-uop.
type WorkloadProfile struct {
	Bench           string
	Warmup, Measure uint64

	Mix         Mix    // measured-region instruction mix
	Mispredicts uint64 // functional hybrid-predictor direction misses

	// Demand-load miss counts by deepest level (measured region).
	LLCHitLoads uint64 // L1D miss, LLC hit
	DRAMLoads   uint64 // L1D and LLC miss
	// Store-miss traffic (write-allocate fills; latency-hidden but energy-
	// and bandwidth-relevant).
	LLCHitStores, DRAMStores uint64
	// Writebacks counts dirty lines leaving the LLC (directly, or via an
	// inclusion-invalidated dirty L1 copy) — DRAM write traffic that
	// competes with demand fills for bandwidth.
	Writebacks uint64

	// DRAM-miss interval structure. Misses within one ROB-sized uop window
	// of a cluster leader overlap under that leader's full-window stall:
	// Clusters is the number of such stall intervals (the MLP-adjusted miss
	// count — a dense steady miss stream costs one stall per window, not
	// one stall total).
	Clusters uint64
	// CoveredAny counts clusters whose leader lies within runahead reach of
	// the previous cluster's leader — stalls that runahead triggered at the
	// previous stall could remove. CoveredChain restricts that to leaders
	// whose static load already missed in the previous cluster, the
	// filtered subset a runahead-buffer dependence chain replays.
	CoveredAny, CoveredChain uint64

	// Dataflow virtual-schedule critical paths over the measured region, in
	// cycles, with loads taking their functional-hit-level latency. CPFull
	// charges DRAM loads the full DRAM latency; CPNoDRAM caps them at the
	// LLC latency, so CPFull-CPNoDRAM isolates serialized (dependent) DRAM
	// misses that no amount of MLP can overlap.
	CPFull, CPNoDRAM int64
}

// Mix is the architectural mix of an interpreted uop stream: the
// instruction-class counts every first-order performance model starts from.
type Mix struct {
	Uops   uint64
	Loads  uint64
	Stores uint64

	Branches      uint64 // all control uops
	CondBranches  uint64
	TakenBranches uint64 // taken control uops (conditional or not)

	// LongLatUops counts non-memory uops whose execution latency exceeds one
	// cycle (multiplies, divides, floating point); ExecLatCycles sums their
	// latencies. Together they bound the execution-latency component of a
	// dataflow-limited region.
	LongLatUops   uint64
	ExecLatCycles uint64
}

func (m *Mix) note(u *isa.Uop, e Exec) {
	m.Uops++
	switch {
	case u.Op.IsLoad():
		m.Loads++
	case u.Op.IsStore():
		m.Stores++
	case u.Op.IsBranch():
		m.Branches++
		if u.Op.IsConditional() {
			m.CondBranches++
		}
		if e.Taken {
			m.TakenBranches++
		}
	default:
		if lat := u.Op.ExecLatency(); lat > 1 {
			m.LongLatUops++
			m.ExecLatCycles += uint64(lat)
		}
	}
}

type missRec struct {
	pos    uint64 // committed-uop position within the measured region
	static int32  // static uop index of the load
}

// profiler drives the functional models from the interpreter's observer.
type profiler struct {
	m    Machine
	tags *memsys.Tags
	bp   *bpred.Predictor

	rec bool // inside the measured region
	wp  *WorkloadProfile

	// Dataflow virtual schedule: completion times per architectural
	// register under full DRAM latency [0] and DRAM-capped latency [1],
	// plus store-to-load forwarding times per 8-byte word.
	ready    [isa.NumArchRegs][2]int64
	memReady map[uint64][2]int64
	cpMax    [2]int64

	misses []missRec
}

// BuildProfile runs one functional profiling pass over p: warmup uops to
// warm the caches, predictor, and dataflow state (mirroring the detailed
// harness's warmup before ResetStats), then measure uops with recording on.
func BuildProfile(bench string, p *prog.Program, m Machine, warmup, measure uint64) *WorkloadProfile {
	wp := &WorkloadProfile{Bench: bench, Warmup: warmup, Measure: measure}
	pr := newProfiler(m, wp)
	in := prog.NewInterp(p)
	in.Observe = pr.step
	in.Run(warmup)
	pr.rec = true
	cpBase, wbBase := pr.cpMax, pr.tags.Writebacks
	in.Run(measure)
	wp.Writebacks = pr.tags.Writebacks - wbBase
	wp.CPFull = pr.cpMax[0] - cpBase[0]
	wp.CPNoDRAM = pr.cpMax[1] - cpBase[1]
	pr.clusterMisses()
	return wp
}

func newProfiler(m Machine, wp *WorkloadProfile) *profiler {
	return &profiler{
		m:        m,
		tags:     memsys.NewTags(m.Mem),
		bp:       bpred.New(m.BPred),
		wp:       wp,
		memReady: make(map[uint64][2]int64),
	}
}

// step is the per-uop observer: the instruction mix (measured region only),
// functional branch prediction, functional cache walk, and the dataflow
// virtual schedule.
func (pr *profiler) step(u *isa.Uop, e Exec) {
	if pr.rec {
		pr.wp.Mix.note(u, e)
	}
	var lat [2]int64
	switch {
	case u.Op.IsLoad():
		lat = pr.load(e)
	case u.Op.IsStore():
		pr.store(e)
		lat = [2]int64{1, 1}
	case u.Op.IsBranch():
		// The real predictor tables, trained as the detailed core trains
		// them on the correct path.
		if pr.bp.Train(u.Op, e.PC, e.NextPC, e.Taken) && pr.rec {
			pr.wp.Mispredicts++
		}
		lat = [2]int64{1, 1}
	default:
		l := int64(u.Op.ExecLatency())
		lat = [2]int64{l, l}
	}
	pr.dataflow(u, e, lat)
}

// load walks the shared functional tag model (the detailed hierarchy's
// cache calls without its timing) and returns the load-to-use latency of the
// level that served it.
func (pr *profiler) load(e Exec) [2]int64 {
	switch pr.tags.Load(e.EA) {
	case memsys.LevelL1:
		return [2]int64{pr.m.L1Lat, pr.m.L1Lat}
	case memsys.LevelLLC:
		if pr.rec {
			pr.wp.LLCHitLoads++
		}
		return [2]int64{pr.m.LLCLat, pr.m.LLCLat}
	}
	if pr.rec {
		pr.misses = append(pr.misses, missRec{pos: pr.wp.Mix.Uops, static: int32(e.Index)})
		pr.wp.DRAMLoads++
	}
	return [2]int64{pr.m.DRAMLat, pr.m.LLCLat}
}

func (pr *profiler) store(e Exec) {
	lvl := pr.tags.Store(e.EA)
	if !pr.rec {
		return
	}
	switch lvl {
	case memsys.LevelLLC:
		pr.wp.LLCHitStores++
	case memsys.LevelMem:
		pr.wp.DRAMStores++
	}
}

// dataflow advances the virtual schedule: each uop starts when its sources
// (and, for loads, the last store to the same word) are ready and completes
// lat cycles later. The running maximum completion time is the dataflow
// critical path — a lower bound on execution with infinite resources, which
// is exactly the serialization the issue-width term cannot see.
func (pr *profiler) dataflow(u *isa.Uop, e Exec, lat [2]int64) {
	var start [2]int64
	if u.Src1 != isa.RegNone {
		start = pr.ready[u.Src1]
	}
	if u.Src2 != isa.RegNone {
		r := pr.ready[u.Src2]
		if r[0] > start[0] {
			start[0] = r[0]
		}
		if r[1] > start[1] {
			start[1] = r[1]
		}
	}
	if u.Op.IsLoad() {
		if r, ok := pr.memReady[e.EA&^7]; ok {
			if r[0] > start[0] {
				start[0] = r[0]
			}
			if r[1] > start[1] {
				start[1] = r[1]
			}
		}
	}
	comp := [2]int64{start[0] + lat[0], start[1] + lat[1]}
	if u.Op.IsStore() {
		pr.memReady[e.EA&^7] = comp
	}
	if u.HasDst() {
		pr.ready[u.Dst] = comp
	}
	if comp[0] > pr.cpMax[0] {
		pr.cpMax[0] = comp[0]
	}
	if comp[1] > pr.cpMax[1] {
		pr.cpMax[1] = comp[1]
	}
}

// clusterMisses groups the recorded DRAM misses into full-window stall
// intervals: a miss within one ROB of the current cluster's *leader* joins
// that cluster (it overlaps under the same window stall); the first miss
// beyond starts a new cluster. A new cluster whose leader lies within
// runahead reach of the previous leader is a stall runahead could have
// removed (CoveredAny), and when its static load already missed in the
// previous cluster the runahead buffer's replayed dependence chain covers
// it too (CoveredChain).
func (pr *profiler) clusterMisses() {
	wp := pr.wp
	if len(pr.misses) == 0 {
		return
	}
	reach := uint64(pr.m.reach())
	rob := uint64(pr.m.ROBSize)
	contains := func(s []int32, v int32) bool {
		for _, x := range s {
			if x == v {
				return true
			}
		}
		return false
	}
	var leaderPos uint64
	var statics []int32 // static loads seen in the current cluster
	for i, mr := range pr.misses {
		if i > 0 && mr.pos-leaderPos < rob {
			if !contains(statics, mr.static) {
				statics = append(statics, mr.static)
			}
			continue
		}
		if i > 0 && mr.pos-leaderPos <= reach {
			wp.CoveredAny++
			if contains(statics, mr.static) {
				wp.CoveredChain++
			}
		}
		wp.Clusters++
		statics = append(statics[:0], mr.static)
		leaderPos = mr.pos
	}
}

// Exec aliases the interpreter's per-uop effect record.
type Exec = prog.Exec

package multicore

import (
	"fmt"
	"strings"
	"testing"

	"runaheadsim/internal/core"
	"runaheadsim/internal/energy"
	"runaheadsim/internal/prog"
	"runaheadsim/internal/workload"
)

// goldenCore pins one core's simulated counts: its statistics, its private
// L1D traffic, and the activity summary the energy model consumes.
type goldenCore struct {
	Cycles      int64
	Finish      int64 // the run-relative cycle the core reached its quota
	Committed   uint64
	CPI         cpiStack
	LoadRetries uint64
	Loads       uint64 // the requestor's hierarchy loads
	L1D         hitMiss
	L1DMSHR     mshrCounts
	// Activity is energy.Measure's counts: L1D, L1I and LLC accesses, DRAM
	// reads, writes and activates. Measure reads requestor 0's private
	// caches, so every core of a mix repeats core 0's L1 figures.
	Activity activity
}

type (
	cpiStack   = [core.NumCPIBuckets]int64
	hitMiss    = [2]uint64 // hits, misses
	mshrCounts = [3]uint64 // Allocs, Merges, Full
	activity   = [6]uint64
)

// goldenCell pins one run: every core plus the shared hierarchy's totals.
type goldenCell struct {
	Name         string
	Cores        []goldenCore
	Loads        uint64 // Hierarchy.Loads
	LLC          hitMiss
	DRAMRequests uint64
}

// goldenSpec names one run: the kernels (one per core), the runahead mode,
// and the committed-uop quota per core.
type goldenSpec struct {
	kernels []string
	mode    core.Mode
	quota   uint64
}

func (s goldenSpec) name() string { return strings.Join(s.kernels, "+") + "/" + s.mode.String() }

var goldenSpecs = []goldenSpec{
	{[]string{"milc"}, core.ModeBuffer, 30_000},
	{[]string{"milc"}, core.ModeBufferCC, 30_000},
	{[]string{"mcf"}, core.ModeBufferCC, 30_000},
	{[]string{"lbm"}, core.ModeTraditional, 30_000},
	{[]string{"libquantum"}, core.ModeNone, 30_000},
	{[]string{"mcf", "milc"}, core.ModeBuffer, 10_000},
	{[]string{"mcf", "milc", "omnetpp", "libquantum"}, core.ModeBuffer, 10_000},
}

// runGolden simulates spec from a cold machine and collects its counts. A
// single kernel runs on the single-core machine, a mix on a cluster.
func runGolden(t *testing.T, spec goldenSpec) goldenCell {
	t.Helper()
	cfg := core.DefaultConfig()
	cfg.Mode = spec.mode
	cfg.WatchdogCycles = 2_000_000
	progs := make([]*prog.Program, len(spec.kernels))
	for i, k := range spec.kernels {
		progs[i] = workload.MustLoad(k)
	}
	var cores []*core.Core
	var sts []*core.Stats
	finish := func(int) int64 { return sts[0].Cycles }
	if len(progs) == 1 {
		c := core.New(cfg, progs[0])
		sts = []*core.Stats{c.Run(spec.quota)}
		cores = []*core.Core{c}
	} else {
		cl := New(cfg, progs)
		sts = cl.Run(spec.quota)
		cores = cl.Cores()
		finish = cl.FinishCycle
	}
	h := cores[0].Hierarchy()
	cell := goldenCell{
		Name:         spec.name(),
		Loads:        h.Loads,
		LLC:          [2]uint64{h.LLC().Hits, h.LLC().Misses},
		DRAMRequests: h.TotalDRAMRequests(),
	}
	for i, c := range cores {
		st := sts[i]
		l1d := h.L1DR(i)
		_, mshr := h.MSHRFilesR(i)
		a := energy.Measure(c)
		cell.Cores = append(cell.Cores, goldenCore{
			Cycles:      st.Cycles,
			Finish:      finish(i),
			Committed:   st.Committed,
			CPI:         st.CPIStack,
			LoadRetries: st.LoadRetries,
			Loads:       h.Req(i).Loads,
			L1D:         [2]uint64{l1d.Hits, l1d.Misses},
			L1DMSHR:     [3]uint64{mshr.Allocs, mshr.Merges, mshr.Full},
			Activity:    [6]uint64{a.L1DAccesses, a.L1IAccesses, a.LLCAccesses, a.DRAMReads, a.DRAMWrites, a.DRAMActivates},
		})
	}
	return cell
}

// TestGoldenSimulatedCounts pins the simulated counts of a fixed set of runs
// — single-core RA, RB, RB+CC and Base cells plus two RB mixes — to values
// recorded before memory completions became typed tokens. Host-side
// representation changes (how requests, completions and retries are stored)
// must leave every simulated count byte-identical; a change that moves one
// on purpose must say so and re-record the table.
func TestGoldenSimulatedCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("full-detail simulation is slow")
	}
	if len(goldenTable) != len(goldenSpecs) {
		t.Fatalf("golden table has %d cells, specs have %d", len(goldenTable), len(goldenSpecs))
	}
	for i, spec := range goldenSpecs {
		t.Run(spec.name(), func(t *testing.T) {
			got := runGolden(t, spec)
			want := goldenTable[i]
			if g, w := fmt.Sprintf("%+v", got), fmt.Sprintf("%+v", want); g != w {
				t.Errorf("simulated counts moved\n got: %s\nwant: %s", g, w)
			}
		})
	}
}

var goldenTable = []goldenCell{
	{
		Name: "milc/runahead-buffer",
		Cores: []goldenCore{
			{Cycles: 17080, Finish: 17080, Committed: 30003, CPI: cpiStack{7927, 476, 2, 360, 245, 6583, 1487}, LoadRetries: 12659, Loads: 15882, L1D: hitMiss{1660, 14222}, L1DMSHR: mshrCounts{741, 1563, 0}, Activity: activity{15882, 5741, 748, 748, 0, 739}},
		},
		Loads: 15882, LLC: hitMiss{0, 748}, DRAMRequests: 748,
	},
	{
		Name: "milc/runahead-buffer+cc",
		Cores: []goldenCore{
			{Cycles: 17448, Finish: 17448, Committed: 30000, CPI: cpiStack{7949, 476, 2, 387, 252, 6821, 1561}, LoadRetries: 13045, Loads: 16333, L1D: hitMiss{1714, 14619}, L1DMSHR: mshrCounts{741, 1574, 0}, Activity: activity{16333, 5836, 748, 748, 0, 739}},
		},
		Loads: 16333, LLC: hitMiss{0, 748}, DRAMRequests: 748,
	},
	{
		Name: "mcf/runahead-buffer+cc",
		Cores: []goldenCore{
			{Cycles: 22124, Finish: 22124, Committed: 30001, CPI: cpiStack{7731, 671, 11, 209, 9671, 3378, 453}, LoadRetries: 10955, Loads: 12364, L1D: hitMiss{621, 11743}, L1DMSHR: mshrCounts{616, 788, 0}, Activity: activity{12364, 5191, 624, 623, 0, 623}},
		},
		Loads: 12364, LLC: hitMiss{0, 624}, DRAMRequests: 624,
	},
	{
		Name: "lbm/runahead",
		Cores: []goldenCore{
			{Cycles: 28214, Finish: 28214, Committed: 30001, CPI: cpiStack{8186, 133, 5, 291, 0, 9763, 9836}, LoadRetries: 0, Loads: 6394, L1D: hitMiss{4688, 3069}, L1DMSHR: mshrCounts{342, 3069, 0}, Activity: activity{7757, 13960, 346, 346, 0, 225}},
		},
		Loads: 6394, LLC: hitMiss{0, 346}, DRAMRequests: 346,
	},
	{
		Name: "libquantum/baseline",
		Cores: []goldenCore{
			{Cycles: 53837, Finish: 53837, Committed: 30001, CPI: cpiStack{12000, 111, 0, 6001, 26723, 0, 9002}, LoadRetries: 0, Loads: 3000, L1D: hitMiss{5624, 375}, L1DMSHR: mshrCounts{375, 375, 0}, Activity: activity{5999, 6046, 378, 378, 0, 51}},
		},
		Loads: 3000, LLC: hitMiss{0, 378}, DRAMRequests: 378,
	},
	{
		Name: "mcf+milc/runahead-buffer",
		Cores: []goldenCore{
			{Cycles: 11019, Finish: 11019, Committed: 10000, CPI: cpiStack{2604, 715, 9, 96, 5363, 2012, 220}, LoadRetries: 21911, Loads: 22398, L1D: hitMiss{213, 22185}, L1DMSHR: mshrCounts{233, 274, 0}, Activity: activity{22398, 1764, 729, 720, 0, 664}},
			{Cycles: 11019, Finish: 6712, Committed: 17302, CPI: cpiStack{4513, 846, 2, 141, 266, 4562, 689}, LoadRetries: 19610, Loads: 21698, L1D: hitMiss{877, 20821}, L1DMSHR: mshrCounts{481, 1211, 0}, Activity: activity{22398, 1764, 729, 720, 0, 664}},
		},
		Loads: 44096, LLC: hitMiss{0, 729}, DRAMRequests: 729,
	},
	{
		Name: "mcf+milc+omnetpp+libquantum/runahead-buffer",
		Cores: []goldenCore{
			{Cycles: 60427, Finish: 11273, Committed: 62160, CPI: cpiStack{16067, 727, 25, 528, 32131, 9900, 1049}, LoadRetries: 59352, Loads: 62640, L1D: hitMiss{1483, 61157}, L1DMSHR: mshrCounts{1261, 1805, 0}, Activity: activity{62640, 10984, 4839, 4839, 0, 4426}},
			{Cycles: 60427, Finish: 7242, Committed: 99653, CPI: cpiStack{26286, 767, 2, 1162, 474, 26914, 4822}, LoadRetries: 123237, Loads: 134459, L1D: hitMiss{5897, 128562}, L1DMSHR: mshrCounts{2421, 5325, 0}, Activity: activity{62640, 10984, 4839, 4839, 0, 4426}},
			{Cycles: 60427, Finish: 60427, Committed: 10000, CPI: cpiStack{6686, 2715, 1398, 2580, 7347, 36136, 3565}, LoadRetries: 2886, Loads: 5627, L1D: hitMiss{2228, 3399}, L1DMSHR: mshrCounts{403, 513, 0}, Activity: activity{62640, 10984, 4839, 4839, 0, 4426}},
			{Cycles: 60427, Finish: 12013, Committed: 56877, CPI: cpiStack{22751, 682, 0, 11474, 160, 8229, 17131}, LoadRetries: 36350, Loads: 49734, L1D: hitMiss{12356, 43065}, L1DMSHR: mshrCounts{713, 6715, 0}, Activity: activity{62640, 10984, 4839, 4839, 0, 4426}},
		},
		Loads: 252460, LLC: hitMiss{0, 4839}, DRAMRequests: 4839,
	},
}

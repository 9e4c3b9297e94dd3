package harness

import (
	"encoding/json"
	"fmt"
	"strconv"
	"strings"
	"sync"

	"runaheadsim/internal/multicore"
	"runaheadsim/internal/prog"
	"runaheadsim/internal/simcheck"
	"runaheadsim/internal/stats"
	"runaheadsim/internal/workload"
)

// Multi-programmed methodology (the standard weighted-speedup harness, e.g.
// Snavely & Tullsen's symbiotic-job-scheduling metrics): every core runs its
// own kernel against the shared LLC + DRAM until each has committed the
// per-core quota. A core that finishes early keeps executing — its memory
// traffic is the contention under study — but its measurement stops at the
// quota crossing, so per-core IPC is quota/finish-cycle. Alone-IPCs come
// from the memoized single-core Runner under the identical configuration:
//
//	WeightedSpeedup = Σ_i IPC_shared,i / IPC_alone,i   (N = no interference)
//	Slowdown_i      = IPC_alone,i / IPC_shared,i       (≥ 1 under contention)
//	HmeanSlowdown   = N / Σ_i (1/Slowdown_i)           (lower is better)
//	MaxSlowdown     = max_i Slowdown_i                 (fairness: worst victim)

// MixCore is one core's row of a multi-programmed result.
type MixCore struct {
	Core  int    `json:"core"`
	Bench string `json:"bench"`

	Committed    uint64 `json:"committed_uops"`
	FinishCycles int64  `json:"finish_cycles"`

	IPCShared float64 `json:"ipc_shared"`
	IPCAlone  float64 `json:"ipc_alone"`
	Slowdown  float64 `json:"slowdown"`

	// Shared-resource contention seen by this core: average cycles each LLC
	// access waited in the arbiter, and this core's DRAM row-hit rate under
	// interleaved traffic.
	LLCArbWaitAvg float64 `json:"llc_arb_wait_avg_cycles"`
	DRAMRowHitPct float64 `json:"dram_row_hit_pct"`
}

// MixResult is one multi-programmed run: a mix of kernels, one per core,
// under one configuration.
type MixResult struct {
	Mix    []string  `json:"mix"`
	Config RunConfig `json:"-"`
	Label  string    `json:"config"`

	Cores []MixCore `json:"-"` // serialized keyed by core ID, see MarshalJSON

	WeightedSpeedup float64 `json:"weighted_speedup"`
	HmeanSlowdown   float64 `json:"hmean_slowdown"`
	MaxSlowdown     float64 `json:"max_slowdown"`
}

// MarshalJSON emits per-core stats keyed by core ID ("0", "1", ...) rather
// than positionally, so consumers can join cores across configurations
// without relying on array order.
func (m *MixResult) MarshalJSON() ([]byte, error) {
	type alias MixResult // drops the method, keeping the tagged fields
	perCore := make(map[string]MixCore, len(m.Cores))
	for _, c := range m.Cores {
		perCore[strconv.Itoa(c.Core)] = c
	}
	return json.Marshal(struct {
		*alias
		PerCore map[string]MixCore `json:"cores"`
	}{(*alias)(m), perCore})
}

// mixKey memoizes mixes the same way key memoizes single runs.
func mixKey(mix []string, rc RunConfig) string {
	return "mix:" + strings.Join(mix, "+") + "|" + key("", rc)
}

// RunMix simulates (or returns the memoized run of) one kernel mix — core i
// running mix[i] — under one configuration on a cluster sharing one LLC and
// DRAM controller. Alone-IPC reference runs come from the same runner's
// single-core memo cache, so a sweep over configurations shares them.
func (r *Runner) RunMix(mix []string, rc RunConfig) *MixResult {
	k := mixKey(mix, rc)
	r.mu.Lock()
	e := r.mixCache[k]
	if e == nil {
		e = &mixEntry{}
		r.mixCache[k] = e
	}
	r.mu.Unlock()
	e.once.Do(func() { e.res = r.runMix(mix, rc) })
	return e.res
}

// mixEntry is one memoized mix run; once gates the single simulation.
type mixEntry struct {
	once sync.Once
	res  *MixResult
}

func (r *Runner) runMix(mix []string, rc RunConfig) *MixResult {
	if len(mix) == 0 {
		panic("harness: empty kernel mix")
	}
	cfg := r.opts.CoreConfig(rc)
	progs := make([]*prog.Program, len(mix))
	// Warmup must cover the slowest-warming member: the cluster runs every
	// core to the same warmup quota, so each member gets at least its own
	// single-core warmup and the shared LLC reaches steady occupancy.
	var warmup uint64
	for i, b := range mix {
		spec, ok := workload.SpecOf(b)
		if !ok {
			panic(fmt.Sprintf("harness: unknown benchmark %q in mix", b))
		}
		if w := r.opts.Warmup(spec.Class); w > warmup {
			warmup = w
		}
		progs[i] = workload.MustLoad(b)
	}

	label := rc.Label() + "/mc" + strconv.Itoa(len(mix))
	mixName := strings.Join(mix, "+")
	m := r.opts.Monitor
	if m != nil {
		m.RunStart(mixName, label)
		defer m.RunDone(mixName, label)
	}

	cl := multicore.New(cfg, progs)
	var checkers []*simcheck.Checker
	if r.opts.Check || simcheck.TagEnabled {
		for i, c := range cl.Cores() {
			checkers = append(checkers, simcheck.Attach(c, progs[i], simcheck.Options{}))
		}
	}
	// Per-core units: the Monitor's interval slot carries the core index.
	phase := func(name string, total uint64) {
		if m == nil {
			return
		}
		for i, b := range mix {
			m.Phase(b, label, i, name, total)
		}
	}
	phase("warmup", warmup)
	cl.Run(warmup)
	cl.ResetStats()
	phase("measure", r.opts.MeasureUops)
	sts := cl.Run(r.opts.MeasureUops)
	if m != nil {
		for i, b := range mix {
			m.Done(b, label, i)
		}
	}
	for _, chk := range checkers {
		chk.Finish()
	}
	if err := cl.CheckInvariants(true); err != nil {
		panic(fmt.Sprintf("harness: mix %s/%s: %v", mixName, label, err))
	}

	res := &MixResult{Mix: mix, Config: rc, Label: label}
	quota := r.opts.MeasureUops
	var ws, invSum, maxSd float64
	h := cl.Hierarchy()
	for i, b := range mix {
		fin := cl.FinishCycle(i)
		ipcShared := stats.Div(float64(quota), float64(fin))
		ipcAlone := r.Result(b, rc).IPC
		sd := stats.Div(ipcAlone, ipcShared)
		ws += stats.Div(ipcShared, ipcAlone)
		invSum += stats.Div(1, sd)
		if sd > maxSd {
			maxSd = sd
		}
		rs := h.Req(i)
		dr := h.DRAM().PerRequestor[i]
		mc := MixCore{
			Core: i, Bench: b,
			Committed: sts[i].Committed, FinishCycles: fin,
			IPCShared: ipcShared, IPCAlone: ipcAlone, Slowdown: sd,
		}
		if rs.LLCArbGrants > 0 {
			mc.LLCArbWaitAvg = float64(rs.LLCArbWaitCycles) / float64(rs.LLCArbGrants)
		}
		if acc := dr.RowHits + dr.RowConflicts; acc > 0 {
			mc.DRAMRowHitPct = 100 * float64(dr.RowHits) / float64(acc)
		}
		res.Cores = append(res.Cores, mc)
	}
	res.WeightedSpeedup = ws
	res.HmeanSlowdown = stats.Div(float64(len(mix)), invSum)
	res.MaxSlowdown = maxSd
	return res
}

// DefaultMix returns the default n-core kernel mix: a rotation over the
// memory-bound workloads, truncated or cycled to n.
func DefaultMix(n int) []string {
	pool := []string{"mcf", "milc", "omnetpp", "libquantum", "lbm"}
	mix := make([]string, n)
	for i := range mix {
		mix[i] = pool[i%len(pool)]
	}
	return mix
}

// MixConfigs are the two systems the multi-programmed comparison reports:
// the baseline and the paper's runahead buffer, whose filtered prefetch
// stream is the contention under study.
func MixConfigs() []RunConfig {
	return []RunConfig{Baseline, Buffer}
}

// MixTable renders multi-programmed results — per-core rows under each
// configuration, then the mix-level weighted-speedup/fairness summary.
func MixTable(results []*MixResult) Table {
	n := 0
	if len(results) > 0 {
		n = len(results[0].Mix)
	}
	t := Table{
		ID:    "multiprog",
		Title: fmt.Sprintf("Multi-programmed mix (%d cores): per-core IPC, weighted speedup, fairness", n),
		Columns: []string{"Config", "Core", "Bench", "IPC alone", "IPC shared", "Slowdown",
			"LLC arb wait", "DRAM row hit"},
	}
	for _, res := range results {
		for _, c := range res.Cores {
			t.AddRow(res.Config.Label(), strconv.Itoa(c.Core), c.Bench,
				f2(c.IPCAlone), f2(c.IPCShared), f2(c.Slowdown),
				f1(c.LLCArbWaitAvg), pct(c.DRAMRowHitPct))
		}
		t.AddRow(res.Config.Label(), "all", "(mix)",
			"", fmt.Sprintf("WS=%.2f/%d", res.WeightedSpeedup, len(res.Cores)),
			fmt.Sprintf("hmean=%.2f", res.HmeanSlowdown),
			fmt.Sprintf("max=%.2f", res.MaxSlowdown), "")
	}
	t.Notes = append(t.Notes,
		"WS = weighted speedup, Σ IPC_shared/IPC_alone (N = no interference); slowdowns: alone/shared, lower is better")
	if len(results) == 2 {
		d := results[1].WeightedSpeedup - results[0].WeightedSpeedup
		t.Notes = append(t.Notes, fmt.Sprintf("%s vs %s weighted speedup: %+0.2f",
			results[1].Config.Label(), results[0].Config.Label(), d))
	}
	return t
}

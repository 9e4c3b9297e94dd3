package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"strings"
	"time"

	"runaheadsim/internal/core"
	"runaheadsim/internal/harness"
	"runaheadsim/internal/isa"
	"runaheadsim/internal/multicore"
	"runaheadsim/internal/prog"
	"runaheadsim/internal/workload"
)

// Run lengths at scale 1. A pass of each workload takes one to four seconds
// on one host core, so a run of a few seconds times every cell several times.
const (
	detailUops     = 200_000   // committed uops per single-core cell
	mixQuota       = 60_000    // committed uops per core per multicore cell
	sampledMeasure = 1_000_000 // measured region per sampled run
)

// workloadDef is one of the benchmark's workloads.
type workloadDef struct {
	name string
	why  string
	pass func(b *bench, tr *tracer, root int, setupOnly bool) *passOut
}

var workloads = []workloadDef{
	{"runahead-detail", "full-detail RA, RB and RB+CC on six memory-bound kernels: chain generation, chain cache, runahead buffer",
		(*bench).detailPass},
	{"baseline-detail", "the same kernels under Base and Base+PF plus compute-bound gcc and h264: no runahead code runs",
		(*bench).detailPass},
	{"sampled-sweep", "the figure-9 run set phase-sampled through Runner.Plan and Runner.Prewarm: the functional layer shows",
		(*bench).sampledPass},
	{"multicore-mix", "2- and 4-core mixes under Base and RB on one shared LLC and DRAM: arbitration and the cluster warp",
		(*bench).mixPass},
}

func findWorkload(name string) (workloadDef, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workloadDef{}, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

// detailKernels are the memory-bound kernels both detail workloads run.
var detailKernels = []string{"mcf", "milc", "lbm", "libquantum", "sphinx3", "omnetpp"}

// sampledKernels are the figure-9 kernels of the sampled sweep.
var sampledKernels = []string{"mcf", "milc", "lbm", "libquantum"}

// baseMixes are the multicore mixes in their default core order.
var baseMixes = [][]string{{"mcf", "milc", "omnetpp", "libquantum"}, {"mcf", "milc"}}

// cell is one (kernel, config) simulation, or one mix for multicore.
type cell struct {
	kernels []string
	rc      harness.RunConfig
}

func (c cell) String() string { return strings.Join(c.kernels, "+") + "/" + c.rc.Label() }

// bench holds one workload's inputs, made from the seed before any timing.
type bench struct {
	def   workloadDef
	seed  uint64
	scale float64

	cells []cell
	// starts holds, per kernel, the architectural checkpoint a single-core
	// cell starts from.
	starts map[string]*prog.ArchState
	// sampleStart is the sampled runs' region offset (0 = the harness
	// default for the kernel's class).
	sampleStart uint64

	// reference returns the interpreter state a cell's committed state must
	// equal: the program run n uops from start. Tests replace it to show that
	// a wrong reference counts as a failure.
	reference func(p *prog.Program, start *prog.ArchState, n uint64) *prog.Interp
}

// pick draws a deterministic value in [0, n) from the seed and a key.
func pick(seed uint64, key string, n uint64) uint64 {
	h := fnv.New64a()
	h.Write([]byte(key))
	x := seed*0x9e3779b97f4a7c15 ^ h.Sum64()
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x % n
}

// newBench makes a workload's inputs from the seed. Seed 0 runs the named
// cells from each program's entry; any other seed keeps the same cells and
// moves where in each program they start (single-core and sampled cells) or
// which core runs which program (multicore), so the cost of a pass stays the
// same while its inputs change.
func newBench(def workloadDef, seed uint64, scale float64) (*bench, error) {
	b := &bench{def: def, seed: seed, scale: scale, starts: map[string]*prog.ArchState{},
		reference: referenceInterp}
	switch def.name {
	case "runahead-detail":
		for _, k := range detailKernels {
			for _, rc := range []harness.RunConfig{harness.Runahead, harness.Buffer, harness.BufferCC} {
				b.cells = append(b.cells, cell{[]string{k}, rc})
			}
		}
	case "baseline-detail":
		for _, k := range detailKernels {
			for _, rc := range []harness.RunConfig{harness.Baseline, harness.Baseline.WithPF()} {
				b.cells = append(b.cells, cell{[]string{k}, rc})
			}
		}
		for _, k := range []string{"gcc", "h264"} {
			b.cells = append(b.cells, cell{[]string{k}, harness.Baseline})
		}
	case "multicore-mix":
		for _, mix := range baseMixes {
			mix = permute(mix, seed)
			for _, rc := range harness.MixConfigs() {
				b.cells = append(b.cells, cell{mix, rc})
			}
		}
	case "sampled-sweep":
		if seed != 0 {
			b.sampleStart = 100_000 + 4096*pick(seed, "sampled", 64)
		}
	}
	if strings.HasSuffix(def.name, "-detail") {
		for _, c := range b.cells {
			k := c.kernels[0]
			if b.starts[k] != nil {
				continue
			}
			p, err := workload.Load(k)
			if err != nil {
				return nil, err
			}
			in := prog.NewInterp(p)
			if seed != 0 {
				in.Run(16384 * (1 + pick(seed, k, 64)))
			}
			st := in.ArchState()
			b.starts[k] = &st
		}
	}
	return b, nil
}

// permute returns mix in a seed-chosen order (seed 0 keeps it).
func permute(mix []string, seed uint64) []string {
	out := append([]string(nil), mix...)
	if seed == 0 {
		return out
	}
	for i := len(out) - 1; i > 0; i-- {
		j := pick(seed, fmt.Sprint("perm", len(out), i), uint64(i+1))
		out[i], out[j] = out[j], out[i]
	}
	return out
}

func (b *bench) scaled(n uint64) uint64 {
	return uint64(math.Max(1, math.Round(float64(n)*b.scale)))
}

func coreConfig(rc harness.RunConfig) core.Config {
	cfg := core.DefaultConfig()
	cfg.Mode = rc.Mode
	cfg.Enhancements = rc.Enhancements
	cfg.Mem.EnablePrefetch = rc.Prefetch
	return cfg
}

func cloneArch(st *prog.ArchState) prog.ArchState {
	c := *st
	c.Mem = st.Mem.Clone()
	return c
}

func referenceInterp(p *prog.Program, start *prog.ArchState, n uint64) *prog.Interp {
	in := prog.NewInterp(p)
	if start != nil {
		in = prog.NewInterpAt(p, cloneArch(start))
	}
	in.Run(n)
	return in
}

// passOut is what one pass of a workload reports.
type passOut struct {
	wall    time.Duration // the workload's fixed simulation work, set-up excluded
	setup   time.Duration // program build plus machine or runner construction
	uops    uint64        // committed uops of the program regions covered
	cells   int
	failed  int
	errs    []string
	digests map[string]string // per cell, the simulated counts that must repeat
	alloc   uint64            // heap bytes allocated while simulating
	t       *tally

	// Per single-core or multicore cell: host seconds in the run call and
	// the cycles it simulated.
	cellRun    map[string]float64
	cellCycles map[string]int64

	ffUops     uint64  // sampled: uops the fast-forwards covered
	profileSec float64 // sampled: Runner.ProfileWallSec
}

func newPassOut() *passOut {
	return &passOut{t: newTally(), digests: map[string]string{},
		cellRun: map[string]float64{}, cellCycles: map[string]int64{}}
}

func (o *passOut) fail(c string, err error) {
	o.failed++
	if len(o.errs) < 8 {
		o.errs = append(o.errs, c+": "+err.Error())
	}
}

// compareArch checks committed registers and memory against the reference.
func compareArch(regs [isa.NumArchRegs]int64, mem *prog.Memory, ref *prog.Interp) error {
	for r := range regs {
		if regs[r] != ref.Regs[r] {
			return fmt.Errorf("r%d = %d, interpreter has %d after %d uops", r, regs[r], ref.Regs[r], ref.Count())
		}
	}
	if addr, diff := mem.FirstDiff(ref.Mem); diff {
		return fmt.Errorf("memory differs from the interpreter at %#x after %d uops", addr, ref.Count())
	}
	return nil
}

// checkCore drains a finished core and compares its committed state with
// the reference interpreter run to the same committed count.
func (b *bench) checkCore(c *core.Core, p *prog.Program, start *prog.ArchState, asked uint64) error {
	if got := c.Stats().Committed; got < asked {
		return fmt.Errorf("committed %d uops, asked for %d", got, asked)
	}
	if err := c.Drain(); err != nil {
		return err
	}
	return compareArch(c.ArchRegs(), c.Mem(), b.reference(p, start, c.Stats().Committed))
}

// guard runs one cell, turning a panic (a watchdog trip included) into the
// cell's failure.
func guard(o *passOut, name string, fn func() error) {
	o.cells++
	err := func() (err error) {
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("panic: %v", r)
			}
		}()
		return fn()
	}()
	if err != nil {
		o.fail(name, err)
	}
}

func statsDigest(st *core.Stats) string {
	return fmt.Sprintf("%d/%d/%v", st.Cycles, st.Committed, st.CPIStack)
}

// detailPass runs every single-core cell in full detail on this goroutine.
func (b *bench) detailPass(tr *tracer, root int, setupOnly bool) *passOut {
	o := newPassOut()
	for i, cl := range b.cells {
		id := i + 1
		runtime.GC() // every cell starts from a collected heap
		guard(o, cl.String(), func() error {
			cs := tr.begin("bench.cell", root, id)
			defer tr.end(cs)
			k := cl.kernels[0]
			start := b.starts[k]
			t0 := time.Now()
			sp := tr.begin("workload.load", cs, id)
			p, err := workload.Load(k)
			tr.end(sp)
			if err != nil {
				return err
			}
			sp = tr.begin("core.new", cs, id)
			c := core.NewFromArch(coreConfig(cl.rc), p, cloneArch(start))
			tr.end(sp)
			o.setup += time.Since(t0)
			if setupOnly {
				return nil
			}

			n := b.scaled(detailUops)
			sp = tr.begin("core.run", cs, id)
			a0 := heapAllocBytes()
			t1 := time.Now()
			st := c.Run(n)
			d := time.Since(t1)
			o.wall += d
			o.alloc += heapAllocBytes() - a0
			tr.end(sp)

			// Read the counts before Drain retires the rest of the window.
			o.uops += st.Committed
			o.cellRun[cl.String()], o.cellCycles[cl.String()] = d.Seconds(), st.Cycles
			o.digests[cl.String()] = statsDigest(st)
			o.t.st.Merge(st)
			o.t.addHierarchy(c.Hierarchy(), st.Committed)

			sp = tr.begin("bench.check", cs, id)
			defer tr.end(sp)
			return b.checkCore(c, p, start, n)
		})
	}
	return o
}

// mixPass runs every multicore cell on one cluster per cell, this goroutine.
func (b *bench) mixPass(tr *tracer, root int, setupOnly bool) *passOut {
	o := newPassOut()
	for i, cl := range b.cells {
		id := i + 1
		runtime.GC() // every cell starts from a collected heap
		guard(o, cl.String(), func() error {
			cs := tr.begin("bench.cell", root, id)
			defer tr.end(cs)
			t0 := time.Now()
			progs := make([]*prog.Program, len(cl.kernels))
			for j, k := range cl.kernels {
				sp := tr.begin("workload.load", cs, id)
				p, err := workload.Load(k)
				tr.end(sp)
				if err != nil {
					return err
				}
				progs[j] = p
			}
			sp := tr.begin("multicore.new", cs, id)
			clu := multicore.New(coreConfig(cl.rc), progs)
			tr.end(sp)
			o.setup += time.Since(t0)
			if setupOnly {
				return nil
			}

			quota := b.scaled(mixQuota)
			sp = tr.begin("multicore.run", cs, id)
			a0 := heapAllocBytes()
			t1 := time.Now()
			sts := clu.Run(quota)
			d := time.Since(t1)
			o.wall += d
			o.alloc += heapAllocBytes() - a0
			tr.end(sp)

			var committed uint64
			digest := fmt.Sprint(clu.Now())
			for _, st := range sts {
				committed += st.Committed
				digest += "|" + statsDigest(st)
				o.t.st.Merge(st)
			}
			o.uops += committed
			o.cellRun[cl.String()], o.cellCycles[cl.String()] = d.Seconds(), clu.Now()
			o.digests[cl.String()] = digest
			o.t.addHierarchy(clu.Hierarchy(), committed)
			_, skipped := clu.WarpStats()
			o.t.clusterCycles += clu.Now()
			o.t.clusterSkipped += skipped

			sp = tr.begin("bench.check", cs, id)
			defer tr.end(sp)
			for j, st := range sts {
				if st.Committed < quota {
					return fmt.Errorf("core %d committed %d uops, asked for %d", j, st.Committed, quota)
				}
			}
			if err := clu.Drain(); err != nil {
				return err
			}
			for j, c := range clu.Cores() {
				if err := compareArch(c.ArchRegs(), c.Mem(), b.reference(progs[j], nil, c.Stats().Committed)); err != nil {
					return fmt.Errorf("core %d (%s): %w", j, cl.kernels[j], err)
				}
			}
			return nil
		})
	}
	return o
}

// sampledPass plans the figure-9 run set and prewarms it phase-sampled, the
// path of `runahead-sweep -sample -sample-mode phase -j 1` with one interval
// worker per run.
func (b *bench) sampledPass(tr *tracer, root int, setupOnly bool) *passOut {
	o := newPassOut()
	measure := b.scaled(sampledMeasure)
	t0 := time.Now()
	for _, k := range sampledKernels {
		sp := tr.begin("workload.load", root, 0)
		_, err := workload.Load(k)
		tr.end(sp)
		if err != nil {
			o.cells++
			o.fail(k, err)
			return o
		}
	}
	opts := harness.Options{
		MeasureUops: measure,
		WarmupUops:  b.sampleStart,
		Benchmarks:  sampledKernels,
		Sample:      &harness.SampleOptions{Mode: harness.SamplePhase, Workers: 1},
	}
	var mon *spanMonitor
	if tr != nil {
		mon = newSpanMonitor(tr)
		opts.Monitor = mon
	}
	sp := tr.begin("harness.new_runner", root, 0)
	r := harness.NewRunner(opts)
	tr.end(sp)
	o.setup += time.Since(t0)
	if setupOnly {
		return o
	}

	t1 := time.Now()
	sp = tr.begin("harness.plan", root, 0)
	runs := r.Plan(func(r *harness.Runner) { harness.Figure9(r) })
	tr.end(sp)
	d := time.Since(t1)
	o.wall += d
	o.cellRun["harness.plan"] = d.Seconds()
	// Prewarm gets one run at a time with one worker, which is what -j 1
	// does with the whole list; each run starts from a collected heap, as the
	// other workloads' cells do.
	for _, pr := range runs {
		runtime.GC()
		sp = tr.begin("harness.prewarm", root, 0)
		if mon != nil {
			mon.parent = sp
		}
		a0 := heapAllocBytes()
		t2 := time.Now()
		r.Prewarm([]harness.PlannedRun{pr}, 1)
		d := time.Since(t2)
		o.wall += d
		o.alloc += heapAllocBytes() - a0
		tr.end(sp)
		o.cellRun[runName(pr)] = d.Seconds()
	}
	o.profileSec = r.ProfileWallSec()
	if mon != nil {
		o.ffUops = mon.ffUops
	}

	for _, pr := range runs {
		res := r.Result(pr.Bench, pr.Config)
		guard(o, runName(pr), func() error {
			if err := checkSampled(res, measure); err != nil {
				return err
			}
			si := res.Sampling
			ci := si.CI("IPC")
			o.uops += measure
			o.digests[runName(pr)] = statsDigest(res.Stats)
			o.cellCycles[runName(pr)] = res.Stats.Cycles
			o.t.st.Merge(res.Stats)
			o.t.llcMiss += uint64(math.Round(res.MPKI * float64(res.Stats.Committed) / 1000))
			o.t.dramReqs += res.DRAMRequests
			o.t.sampledRuns++
			o.t.detailedUops += si.DetailedUops
			o.t.measuredUops += measure
			o.t.phases += si.Phases
			o.t.ipcCIRelSum += (ci.Hi - ci.Lo) / 2 / ci.Mean
			return nil
		})
	}
	return o
}

func runName(pr harness.PlannedRun) string { return pr.Bench + "/" + pr.Config.Label() }

// checkSampled checks what a phase-sampled result must satisfy: it is a
// detailed simulation with a phase plan, its merged windows measured some
// but not more than the region, and its IPC lies inside its own confidence
// interval.
func checkSampled(res *harness.Result, measure uint64) error {
	si := res.Sampling
	if res.Provenance != harness.ProvenanceDetailed || si == nil || si.Phases < 1 {
		return fmt.Errorf("not a phase-sampled detailed result")
	}
	if c := res.Stats.Committed; c == 0 || c > measure {
		return fmt.Errorf("merged windows committed %d uops of a %d-uop region", c, measure)
	}
	ci := si.CI("IPC")
	if ci == nil || !(res.IPC > 0) || res.IPC < ci.Lo || res.IPC > ci.Hi {
		return fmt.Errorf("IPC %v outside its confidence interval %+v", res.IPC, ci)
	}
	return nil
}

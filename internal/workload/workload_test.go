package workload

import (
	"slices"
	"strings"
	"testing"

	"runaheadsim/internal/core"
	"runaheadsim/internal/isa"
	"runaheadsim/internal/prog"
)

func TestAllBenchmarksBuildAndValidate(t *testing.T) {
	for _, s := range All() {
		p, err := Load(s.Name)
		if err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		if p.NumUops() == 0 {
			t.Fatalf("%s: empty program", s.Name)
		}
	}
	if len(All()) != 29 {
		t.Fatalf("expected 29 benchmarks, have %d", len(All()))
	}
	if len(MediumHigh()) != 13 {
		t.Fatalf("expected 13 medium+high benchmarks, have %d", len(MediumHigh()))
	}
}

func TestLoadUnknownName(t *testing.T) {
	if _, err := Load("nosuchbench"); err == nil {
		t.Fatal("unknown benchmark must error")
	}
}

func TestLoadIsCached(t *testing.T) {
	a := MustLoad("mcf")
	b := MustLoad("mcf")
	if a != b {
		t.Fatal("Load must cache programs")
	}
}

func TestSpecOf(t *testing.T) {
	s, ok := SpecOf("omnetpp")
	if !ok || s.Class != High {
		t.Fatalf("SpecOf(omnetpp) = %+v, %v", s, ok)
	}
	if _, ok := SpecOf("nope"); ok {
		t.Fatal("SpecOf must reject unknown names")
	}
}

// TestInterpreterRunsAllBenchmarks checks each program is functionally sound
// (no interpreter panics, registers stay plausible) for a long run.
func TestInterpreterRunsAllBenchmarks(t *testing.T) {
	for _, s := range All() {
		in := prog.NewInterp(MustLoad(s.Name))
		in.Run(50_000)
		if in.Count() != 50_000 {
			t.Fatalf("%s: interpreter stopped early", s.Name)
		}
	}
}

// runFor runs a benchmark on the baseline core for n committed uops after a
// cache warmup (small-footprint benchmarks need to wrap their arrays before
// steady-state MPKI emerges).
func runFor(t *testing.T, name string, mode core.Mode, warm, n uint64) (*core.Core, *core.Stats) {
	t.Helper()
	cfg := core.DefaultConfig()
	cfg.Mode = mode
	c := core.New(cfg, MustLoad(name))
	c.Run(warm)
	c.ResetStats()
	st := c.Run(n)
	return c, st
}

// mpki computes LLC demand misses per thousand committed uops.
func mpki(c *core.Core, st *core.Stats) float64 {
	return 1000 * float64(c.Hierarchy().LLCDemandMisses) / float64(st.Committed)
}

// TestMemoryIntensityClasses verifies the Table 2 calibration: every
// benchmark lands in its published MPKI band (Low <= 2, Medium 2-10, High
// >= 10), which the whole evaluation hangs off.
func TestMemoryIntensityClasses(t *testing.T) {
	if testing.Short() {
		t.Skip("calibration sweep is slow")
	}
	for _, s := range All() {
		s := s
		t.Run(s.Name, func(t *testing.T) {
			t.Parallel()
			warm := uint64(100_000)
			if s.Class == Low {
				warm = 500_000 // wrap the small arrays so cold misses age out
			}
			c, st := runFor(t, s.Name, core.ModeNone, warm, 100_000)
			m := mpki(c, st)
			switch s.Class {
			case Low:
				if m > 2.5 {
					t.Fatalf("MPKI %.1f too high for a low-intensity benchmark", m)
				}
			case Medium:
				if m < 1.5 || m > 12 {
					t.Fatalf("MPKI %.1f outside the medium band", m)
				}
			case High:
				if m < 9 {
					t.Fatalf("MPKI %.1f too low for a high-intensity benchmark", m)
				}
			}
		})
	}
}

// TestEquivalenceOnSuite spot-checks architectural equivalence of the OoO
// core against the interpreter on one benchmark per family, under the most
// invasive mode (hybrid runahead).
func TestEquivalenceOnSuite(t *testing.T) {
	for _, name := range []string{"mcf", "libquantum", "omnetpp", "zeusmp", "gobmk", "sphinx3"} {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			cfg := core.DefaultConfig()
			cfg.Mode = core.ModeHybrid
			p := MustLoad(name)
			c := core.New(cfg, p)
			st := c.Run(30_000)
			in := prog.NewInterp(p)
			in.Run(st.Committed)
			regs := c.ArchRegs()
			for r := 0; r < isa.NumArchRegs; r++ {
				if regs[r] != in.Regs[r] {
					t.Fatalf("r%d = %d, interpreter has %d", r, regs[r], in.Regs[r])
				}
			}
			if !c.Mem().Equal(in.Mem) {
				addr, _ := c.Mem().FirstDiff(in.Mem)
				t.Fatalf("memory differs at %#x", addr)
			}
		})
	}
}

// TestChainLengthCalibration verifies the Figure 5 shape: mcf-class chains
// are short, sphinx3's exceed the 32-uop cap, omnetpp's are the longest.
func TestChainLengthCalibration(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	lengths := map[string]float64{}
	for _, name := range []string{"mcf", "sphinx3", "omnetpp"} {
		cfg := core.DefaultConfig()
		cfg.Mode = core.ModeTraditional
		cfg.DepTrack = true
		c := core.New(cfg, MustLoad(name))
		st := c.Run(60_000)
		if st.ChainLengths.Count == 0 {
			t.Fatalf("%s: no chains traced", name)
		}
		lengths[name] = st.ChainLengths.Mean()
	}
	if lengths["mcf"] >= 20 {
		t.Fatalf("mcf chain length %.1f should be short", lengths["mcf"])
	}
	if lengths["sphinx3"] <= 32 {
		t.Fatalf("sphinx3 chain length %.1f should exceed the 32-uop cap", lengths["sphinx3"])
	}
	if lengths["omnetpp"] <= lengths["mcf"] {
		t.Fatalf("omnetpp chains (%.1f) should be longer than mcf's (%.1f)",
			lengths["omnetpp"], lengths["mcf"])
	}
}

// TestPrefetcherFriendliness: the stream prefetcher must help libquantum
// (sequential) far more than zeusmp (47-line stride).
func TestPrefetcherFriendliness(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	speedup := func(name string) float64 {
		base := core.DefaultConfig()
		c1 := core.New(base, MustLoad(name))
		s1 := c1.Run(40_000)
		s1.Cycles = c1.Now()
		pf := core.DefaultConfig()
		pf.Mem.EnablePrefetch = true
		c2 := core.New(pf, MustLoad(name))
		s2 := c2.Run(40_000)
		s2.Cycles = c2.Now()
		return s2.IPC() / s1.IPC()
	}
	libq := speedup("libquantum")
	zeus := speedup("zeusmp")
	if libq < 1.15 {
		t.Fatalf("prefetcher speedup on libquantum = %.2fx, expected large", libq)
	}
	if zeus > libq*0.8 {
		t.Fatalf("prefetcher should help zeusmp (%.2fx) far less than libquantum (%.2fx)", zeus, libq)
	}
}

// TestEquivalenceSoak is the long-run version of the equivalence check:
// a quarter-million uops of the two most complex benchmarks under the most
// invasive configuration. Rare state-restoration bugs (a poison bit or RAT
// entry surviving an exit) surface here.
func TestEquivalenceSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test is slow")
	}
	for _, name := range []string{"mcf", "omnetpp"} {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			cfg := core.DefaultConfig()
			cfg.Mode = core.ModeHybrid
			cfg.Enhancements = true
			cfg.Mem.EnablePrefetch = true
			p := MustLoad(name)
			c := core.New(cfg, p)
			st := c.Run(250_000)
			in := prog.NewInterp(p)
			in.Run(st.Committed)
			regs := c.ArchRegs()
			for r := 0; r < isa.NumArchRegs; r++ {
				if regs[r] != in.Regs[r] {
					t.Fatalf("r%d = %d, interpreter has %d after %d uops",
						r, regs[r], in.Regs[r], st.Committed)
				}
			}
			if !c.Mem().Equal(in.Mem) {
				addr, _ := c.Mem().FirstDiff(in.Mem)
				t.Fatalf("memory differs at %#x", addr)
			}
		})
	}
}

// badNameLists are benchmark lists ParseNames must refuse.
var badNameLists = []string{"nosuch", "mcf,,lbm", "mcf,", ",mcf", "mcf, MCF"}

func TestParseNames(t *testing.T) {
	got, err := ParseNames(" mcf, lbm ,mcf")
	if err != nil || len(got) != 3 || got[0] != "mcf" || got[1] != "lbm" || got[2] != "mcf" {
		t.Fatalf("ParseNames trimmed list = %q, %v", got, err)
	}
	if got, err := ParseNames(""); got != nil || err != nil {
		t.Fatalf("empty spec = %q, %v; want nil, nil", got, err)
	}
	for _, bad := range badNameLists {
		if _, err := ParseNames(bad); err == nil {
			t.Errorf("ParseNames(%q) accepted a bad list", bad)
		}
	}
}

// FuzzParseNames: any string parses with an error or into names SpecOf
// knows, which parse back unchanged once joined with commas.
func FuzzParseNames(f *testing.F) {
	for _, spec := range append([]string{" mcf, lbm ,mcf", ""}, badNameLists...) {
		f.Add(spec)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		names, err := ParseNames(spec)
		if err != nil {
			return
		}
		for _, name := range names {
			if _, ok := SpecOf(name); !ok {
				t.Fatalf("ParseNames(%q) returned unknown benchmark %q", spec, name)
			}
		}
		again, err := ParseNames(strings.Join(names, ","))
		if err != nil || !slices.Equal(again, names) {
			t.Fatalf("ParseNames(%q) = %q, but the joined list parses to %q, %v", spec, names, again, err)
		}
	})
}

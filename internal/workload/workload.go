// Package workload provides the synthetic stand-ins for the SPEC CPU2006
// benchmark suite (see DESIGN.md, "Substitutions"). Each of the 29 names
// from the paper maps to a small program in the simulator's ISA, drawn from
// six kernel families and parameterized so the *published characteristics*
// of that benchmark hold: its Table 2 memory-intensity class, its dependence
// chain length (Figure 5), its chain repetitiveness (Figure 4), its
// excess-operation ratio during runahead (Figure 3), and its friendliness to
// stream prefetching.
//
// The families:
//
//   - stream:  sequential multi-array sweeps (libquantum, lbm, bwaves, ...)
//   - gather:  indexed loads over a large footprint with a short, repetitive
//     address chain (mcf, soplex, milc, sphinx)
//   - stencil: strided sweeps; large strides defeat the stream prefetcher
//     (zeusmp, cactusADM)
//   - walk:    data-directed tree descent with long, path-dependent chains
//     and hard-to-predict branches (omnetpp)
//   - compute: small-footprint loops of varying ALU/FP/branch mix (the 16
//     low-intensity benchmarks)
//
// Programs are built lazily and cached; Program.NewMemory gives each run a
// private memory image.
package workload

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"runaheadsim/internal/prog"
)

// Class is the Table 2 memory-intensity class.
type Class uint8

// Memory intensity classes (Table 2: Low MPKI <= 2, Medium > 2, High >= 10).
const (
	Low Class = iota
	Medium
	High
)

// String implements fmt.Stringer.
func (c Class) String() string {
	switch c {
	case Low:
		return "low"
	case Medium:
		return "medium"
	default:
		return "high"
	}
}

// Spec names one benchmark and its expected class.
type Spec struct {
	Name  string
	Class Class
	build func() *prog.Program
}

// specs lists all 29 benchmarks in the paper's Figure 1 order (lowest to
// highest memory intensity).
var specs = []Spec{
	// Low intensity (16).
	{Name: "calculix", Class: Low, build: func() *prog.Program { return compute("calculix", 32, 10, 2, false) }},
	{Name: "povray", Class: Low, build: func() *prog.Program { return compute("povray", 32, 8, 4, true) }},
	{Name: "namd", Class: Low, build: func() *prog.Program { return compute("namd", 48, 6, 6, false) }},
	{Name: "gamess", Class: Low, build: func() *prog.Program { return compute("gamess", 32, 12, 3, false) }},
	{Name: "perlbench", Class: Low, build: func() *prog.Program { return compute("perlbench", 64, 14, 1, true) }},
	{Name: "tonto", Class: Low, build: func() *prog.Program { return compute("tonto", 48, 9, 4, false) }},
	{Name: "gromacs", Class: Low, build: func() *prog.Program { return compute("gromacs", 64, 8, 5, false) }},
	{Name: "gobmk", Class: Low, build: func() *prog.Program { return compute("gobmk", 80, 16, 1, true) }},
	{Name: "dealII", Class: Low, build: func() *prog.Program { return compute("dealII", 80, 10, 4, false) }},
	{Name: "sjeng", Class: Low, build: func() *prog.Program { return compute("sjeng", 80, 15, 1, true) }},
	{Name: "gcc", Class: Low, build: func() *prog.Program { return compute("gcc", 96, 12, 1, true) }},
	{Name: "hmmer", Class: Low, build: func() *prog.Program { return compute("hmmer", 96, 14, 2, false) }},
	{Name: "h264", Class: Low, build: func() *prog.Program { return compute("h264", 112, 12, 3, false) }},
	{Name: "bzip2", Class: Low, build: func() *prog.Program { return compute("bzip2", 112, 12, 1, true) }},
	{Name: "astar", Class: Low, build: func() *prog.Program { return compute("astar", 128, 14, 1, true) }},
	{Name: "xalancbmk", Class: Low, build: func() *prog.Program { return compute("xalancbmk", 128, 13, 2, true) }},

	// Medium intensity (3). Odd line strides (47, 41) defeat the stream
	// prefetcher's sequential tracking; the heavy filler models stencil FP
	// work and keeps MPKI in the 2-10 band.
	{Name: "zeusmp", Class: Medium, build: func() *prog.Program {
		return stencil("zeusmp", 16<<20, 47*64, 2, 24)
	}},
	{Name: "cactusADM", Class: Medium, build: func() *prog.Program {
		return stencil("cactusADM", 16<<20, 41*64, 2, 30)
	}},
	{Name: "wrf", Class: Medium, build: func() *prog.Program {
		return stream("wrf", 2, 24<<20, 30, 1) // sequential: the prefetcher covers it
	}},

	// High intensity (10). Streams use at most two arrays so their miss PCs
	// fit the two-entry chain cache, as the paper's high per-benchmark chain
	// cache hit rates imply for SPEC.
	{Name: "GemsFDTD", Class: High, build: func() *prog.Program { return stream("GemsFDTD", 2, 48<<20, 8, 0) }},
	{Name: "leslie3d", Class: High, build: func() *prog.Program { return stream("leslie3d", 2, 48<<20, 14, 0) }},
	{Name: "omnetpp", Class: High, build: func() *prog.Program { return walk("omnetpp", 64<<20, 8) }},
	{Name: "milc", Class: High, build: func() *prog.Program { return gather("milc", 64<<20, 4, 30, 1, false) }},
	{Name: "soplex", Class: High, build: func() *prog.Program { return gather("soplex", 48<<20, 6, 8, 0, false) }},
	{Name: "sphinx3", Class: High, build: func() *prog.Program { return gather("sphinx3", 48<<20, 30, 10, 0, true) }},
	{Name: "bwaves", Class: High, build: func() *prog.Program { return stream("bwaves", 2, 64<<20, 8, 0) }},
	{Name: "libquantum", Class: High, build: func() *prog.Program { return stream("libquantum", 1, 64<<20, 3, 1) }},
	{Name: "lbm", Class: High, build: func() *prog.Program { return stream("lbm", 2, 64<<20, 12, 1) }},
	{Name: "mcf", Class: High, build: func() *prog.Program { return mcfKernel("mcf", 96<<20, 3, 44) }},
}

// All returns every benchmark spec in Figure 1 order.
func All() []Spec { return append([]Spec(nil), specs...) }

// MediumHigh returns the 13 medium+high intensity benchmarks (the set most
// figures average over).
func MediumHigh() []Spec {
	var out []Spec
	for _, s := range specs {
		if s.Class != Low {
			out = append(out, s)
		}
	}
	return out
}

// Names returns all benchmark names in Figure 1 order.
func Names() []string {
	out := make([]string, len(specs))
	for i, s := range specs {
		out[i] = s.Name
	}
	return out
}

var (
	cacheMu sync.Mutex
	built   = map[string]*prog.Program{}
)

// Load returns the (cached) program for a benchmark name.
func Load(name string) (*prog.Program, error) {
	cacheMu.Lock()
	defer cacheMu.Unlock()
	if p, ok := built[name]; ok {
		return p, nil
	}
	for _, s := range specs {
		if s.Name == name {
			p := s.build()
			if err := p.Validate(); err != nil {
				return nil, fmt.Errorf("workload %q: %w", name, err)
			}
			built[name] = p
			return p, nil
		}
	}
	names := Names()
	sort.Strings(names)
	return nil, fmt.Errorf("workload: unknown benchmark %q (have %v)", name, names)
}

// MustLoad is Load, panicking on unknown names (a programming error in the
// harness, not a runtime condition).
func MustLoad(name string) *prog.Program {
	p, err := Load(name)
	if err != nil {
		panic(err)
	}
	return p
}

// ParseNames parses a comma-separated list of benchmark names, as the CLIs'
// -benchmarks and -mix flags take them. Entries are trimmed of whitespace;
// an empty entry or an unknown name is an error naming it. An empty or
// all-blank spec yields nil (no list given).
func ParseNames(spec string) ([]string, error) {
	if strings.TrimSpace(spec) == "" {
		return nil, nil
	}
	parts := strings.Split(spec, ",")
	names := make([]string, len(parts))
	for i, part := range parts {
		name := strings.TrimSpace(part)
		if name == "" {
			return nil, fmt.Errorf("empty benchmark name at position %d in %q", i+1, spec)
		}
		if _, ok := SpecOf(name); !ok {
			return nil, fmt.Errorf("unknown benchmark %q (runahead-sim -list names them all)", name)
		}
		names[i] = name
	}
	return names, nil
}

// SpecOf returns the spec for a name.
func SpecOf(name string) (Spec, bool) {
	for _, s := range specs {
		if s.Name == name {
			return s, true
		}
	}
	return Spec{}, false
}

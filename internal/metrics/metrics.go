// Package metrics is the simulator's self-profiling registry: named,
// monotonic counters of the host work the simulator does (clock-warp jumps
// and vetoes, scheduler wakeups, pool recycling, DRAM horizon skips) that
// perfbench reads as deltas around a timed pass.
//
// The package is a leaf (standard library only), so every simulator
// component can publish counters without import cycles — the same property
// internal/trace has for events. Two disciplines keep it off the hot path:
//
//   - A Counter is one atomic. Counter.Add is a single atomic add with no
//     allocation, locking, or map lookup; handles are resolved once at
//     registration, never per observation.
//
//   - Simulation kernels do not even pay the atomic per cycle: they
//     accumulate into plain struct fields on their own single-goroutine
//     state and flush deltas here at run boundaries (see core.publishMetrics).
//     The registry's atomics only absorb flush-rate traffic, so concurrent
//     sweep workers aggregate into one process-wide total for free.
//
// Names follow `<subsystem>_<what>_total`. Counters follow the same
// ownership rule simlint enforces for core.Stats: the package that
// registers a counter is the only writer (and the only package holding the
// handle); everyone else reads through Export.
package metrics

import (
	"sort"
	"sync"
	"sync/atomic"
)

// Enabled reports that the registry is compiled in. It is always true;
// perfbench checks it before trusting registry deltas.
const Enabled = true

// Counter is a monotonically increasing counter. The zero value is NOT
// usable: obtain instances from Registry.Counter so they are named and
// exported (simlint's statshygiene rule enforces this, as it does for stats
// objects).
type Counter struct {
	v    atomic.Uint64
	help string

	_ noCopy
}

// Add adds n to the counter.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Registry holds named counters. Registration is idempotent: asking for an
// existing name returns the same handle, so package-level handles and
// re-constructed components share one counter. Export is sorted by name, so
// it is stable across runs and registration orders.
type Registry struct {
	mu sync.Mutex
	by map[string]*Counter
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{by: make(map[string]*Counter)}
}

// Default is the process-wide registry the simulator's packages register
// their counters in.
var Default = NewRegistry()

// Counter returns (registering if needed) the named counter.
func (r *Registry) Counter(name, help string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.by[name]
	if !ok {
		c = &Counter{help: help}
		r.by[name] = c
	}
	return c
}

// Metric is one counter's exported value.
type Metric struct {
	Name  string
	Help  string
	Value int64
}

// Export returns every counter's current value, sorted by name.
func (r *Registry) Export() []Metric {
	r.mu.Lock()
	out := make([]Metric, 0, len(r.by))
	//simlint:allow determinism -- counters are sorted by name below
	for name, c := range r.by {
		out = append(out, Metric{Name: name, Help: c.help, Value: int64(c.Value())})
	}
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// noCopy triggers `go vet -copylocks` on counters copied by value —
// handles must be shared as pointers or the atomics split.
type noCopy struct{}

func (*noCopy) Lock()   {}
func (*noCopy) Unlock() {}

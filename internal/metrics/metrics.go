// Package metrics is the simulator's runtime self-profiling substrate: a
// low-overhead registry of named counters, gauges, and histograms that the
// telemetry HTTP server exports in Prometheus text and JSON form.
//
// The package is a leaf (standard library only), so every simulator
// component can publish counters without import cycles — the same property
// internal/trace has for events. Two disciplines keep it off the hot path:
//
//   - Instruments are atomics. One Counter.Add is a single atomic add with
//     no allocation, locking, or map lookup; handles are resolved once at
//     registration, never per observation.
//
//   - Simulation kernels do not even pay the atomic per cycle: they
//     accumulate into plain struct fields on their own single-goroutine
//     state and flush deltas here at run boundaries (see core.PublishMetrics).
//     The registry's atomics only absorb flush-rate traffic, so concurrent
//     sweep workers aggregate into one fleet-wide view for free.
//
// Like the tracer and the simcheck oracle, the whole layer can be compiled
// out: building with `-tags nometrics` turns every instrument method into a
// constant-false branch the compiler deletes (see enabled_off.go).
//
// Naming follows the Prometheus convention: `sim_<subsystem>_<what>_<unit>`
// with `_total` for monotonic counters. Instruments follow the same
// ownership rule simlint enforces for core.Stats: the package that registers
// an instrument is the only writer (and the only package holding the
// handle); everyone else reads through the exporters.
package metrics

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing counter. The zero value is NOT
// usable: obtain instances from Registry.Counter so they are named,
// registered, and exported (simlint's statshygiene rule enforces this, as it
// does for stats objects).
type Counter struct {
	v atomic.Uint64

	_ noCopy
}

// Add adds n to the counter.
func (c *Counter) Add(n uint64) {
	if !Enabled || c == nil {
		return
	}
	c.v.Add(n)
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count.
func (c *Counter) Value() uint64 {
	if !Enabled || c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an instantaneous signed value (occupancy, active workers).
// Obtain instances from Registry.Gauge.
type Gauge struct {
	v atomic.Int64

	_ noCopy
}

// Set stores v.
func (g *Gauge) Set(v int64) {
	if !Enabled || g == nil {
		return
	}
	g.v.Store(v)
}

// Add adds d (may be negative).
func (g *Gauge) Add(d int64) {
	if !Enabled || g == nil {
		return
	}
	g.v.Add(d)
}

// Value returns the current value.
func (g *Gauge) Value() int64 {
	if !Enabled || g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram counts observations in power-of-two buckets: bucket i counts
// values v with v <= 2^i (the first bucket holds v <= 1), plus an overflow
// bucket. Exponential buckets suit the quantities the simulator observes —
// warp jump lengths, queue depths, fan-outs — whose interesting structure is
// orders of magnitude, not absolute values. Obtain instances from
// Registry.Histogram.
type Histogram struct {
	buckets []atomic.Uint64 // buckets[i]: v <= 2^i; last = +Inf
	count   atomic.Uint64
	sum     atomic.Int64

	_ noCopy
}

// Observe records one value. Negative values clamp to zero.
func (h *Histogram) Observe(v int64) {
	if !Enabled || h == nil {
		return
	}
	if v < 0 {
		v = 0
	}
	i := 0
	for uint64(v) > uint64(1)<<i && i < len(h.buckets)-1 {
		i++
	}
	h.buckets[i].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	if !Enabled || h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the running sum of observed values.
func (h *Histogram) Sum() int64 {
	if !Enabled || h == nil {
		return 0
	}
	return h.sum.Load()
}

// kind tags a registered instrument for the exporters.
type kind uint8

const (
	kindCounter kind = iota
	kindGauge
	kindHistogram
)

func (k kind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// instrument is one registered metric.
type instrument struct {
	name string
	help string
	kind kind

	counter *Counter
	gauge   *Gauge
	hist    *Histogram
}

// Registry holds named instruments and renders them. Registration is
// idempotent: asking for an existing name of the same kind returns the same
// handle, so package-level instrument vars and re-constructed components
// share one instrument. Exported output is sorted by name, so it is stable
// across runs and registration orders.
type Registry struct {
	mu sync.RWMutex
	by map[string]*instrument
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{by: make(map[string]*instrument)}
}

// Default is the process-wide registry the telemetry server exports. Package
// init-time instrument registration goes here.
var Default = NewRegistry()

func (r *Registry) get(name, help string, k kind) *instrument {
	r.mu.Lock()
	defer r.mu.Unlock()
	if in, ok := r.by[name]; ok {
		if in.kind != k {
			panic(fmt.Sprintf("metrics: %q re-registered as %v (was %v)", name, k, in.kind))
		}
		return in
	}
	in := &instrument{name: name, help: help, kind: k}
	switch k {
	case kindCounter:
		in.counter = &Counter{}
	case kindGauge:
		in.gauge = &Gauge{}
	case kindHistogram:
		in.hist = &Histogram{buckets: make([]atomic.Uint64, histBuckets)}
	}
	r.by[name] = in
	return in
}

// histBuckets covers v <= 2^0 .. 2^30 plus overflow — warp jumps, queue
// depths, and fan-outs all fit with room to spare.
const histBuckets = 32

// Counter returns (registering if needed) the named counter.
func (r *Registry) Counter(name, help string) *Counter {
	return r.get(name, help, kindCounter).counter
}

// Gauge returns (registering if needed) the named gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	return r.get(name, help, kindGauge).gauge
}

// Histogram returns (registering if needed) the named histogram.
func (r *Registry) Histogram(name, help string) *Histogram {
	return r.get(name, help, kindHistogram).hist
}

// sorted returns the instruments in name order.
func (r *Registry) sorted() []*instrument {
	r.mu.RLock()
	out := make([]*instrument, 0, len(r.by))
	//simlint:allow determinism -- instruments are sorted by name below
	for _, in := range r.by {
		out = append(out, in)
	}
	r.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// WritePrometheus renders every instrument in the Prometheus text exposition
// format (version 0.0.4), sorted by name.
func (r *Registry) WritePrometheus(w io.Writer) error {
	for _, in := range r.sorted() {
		if in.help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", in.name, in.help); err != nil {
				return err
			}
		}
		var err error
		switch in.kind {
		case kindCounter:
			_, err = fmt.Fprintf(w, "# TYPE %s counter\n%s %d\n", in.name, in.name, in.counter.Value())
		case kindGauge:
			_, err = fmt.Fprintf(w, "# TYPE %s gauge\n%s %d\n", in.name, in.name, in.gauge.Value())
		case kindHistogram:
			err = writePromHistogram(w, in.name, in.hist)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

func writePromHistogram(w io.Writer, name string, h *Histogram) error {
	if _, err := fmt.Fprintf(w, "# TYPE %s histogram\n", name); err != nil {
		return err
	}
	var cum uint64
	for i := range h.buckets {
		n := h.buckets[i].Load()
		cum += n
		if n == 0 && i > 0 && i < len(h.buckets)-1 {
			continue // keep output compact: skip empty interior buckets
		}
		le := "+Inf"
		if i < len(h.buckets)-1 {
			le = fmt.Sprintf("%d", uint64(1)<<i)
		}
		if _, err := fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", name, le, cum); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w, "%s_sum %d\n%s_count %d\n", name, h.sum.Load(), name, h.count.Load())
	return err
}

// JSONMetric is one instrument in the JSON export.
type JSONMetric struct {
	Name  string `json:"name"`
	Kind  string `json:"kind"`
	Help  string `json:"help,omitempty"`
	Value int64  `json:"value,omitempty"` // counter/gauge (counters as int64 for JSON friendliness)

	// Histogram fields.
	Count   uint64            `json:"count,omitempty"`
	Sum     int64             `json:"sum,omitempty"`
	Mean    float64           `json:"mean,omitempty"`
	Buckets map[string]uint64 `json:"buckets,omitempty"` // le -> cumulative count
}

// Export returns the instruments as JSON-ready values, sorted by name.
func (r *Registry) Export() []JSONMetric {
	ins := r.sorted()
	out := make([]JSONMetric, 0, len(ins))
	for _, in := range ins {
		m := JSONMetric{Name: in.name, Kind: in.kind.String(), Help: in.help}
		switch in.kind {
		case kindCounter:
			m.Value = int64(in.counter.Value())
		case kindGauge:
			m.Value = in.gauge.Value()
		case kindHistogram:
			m.Count = in.hist.Count()
			m.Sum = in.hist.Sum()
			if m.Count > 0 {
				m.Mean = float64(m.Sum) / float64(m.Count)
			}
			m.Buckets = make(map[string]uint64)
			var cum uint64
			for i := range in.hist.buckets {
				n := in.hist.buckets[i].Load()
				cum += n
				if n == 0 {
					continue
				}
				le := "+Inf"
				if i < len(in.hist.buckets)-1 {
					le = fmt.Sprintf("%d", uint64(1)<<i)
				}
				m.Buckets[le] = cum
			}
		}
		out = append(out, m)
	}
	return out
}

// WriteJSON renders the instruments as a JSON array, sorted by name.
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Export())
}

// noCopy triggers `go vet -copylocks` on instruments copied by value —
// handles must be shared as pointers or the atomics split.
type noCopy struct{}

func (*noCopy) Lock()   {}
func (*noCopy) Unlock() {}
